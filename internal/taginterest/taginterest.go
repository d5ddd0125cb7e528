// Package taginterest implements tag-based social interest discovery —
// the technique of the paper's reference [6] (Li, Guo & Zhao, "Tag-based
// social interest discovery", WWW'08), which the paper lists as an
// alternative way to obtain interest domains.
//
// Posts carry folksonomy tags. Tags that frequently co-occur on the same
// posts form an interest: the discovery builds the tag co-occurrence
// graph as a graph.CSR over the sorted tags, keeping only the pairs that
// meet a support threshold, and takes its connected components as
// interest groups. Each group is then scored per blogger by how much of
// their tagging activity falls inside it, giving both the group's topic
// signature (its tags) and its community (its bloggers).
package taginterest

import (
	"fmt"
	"sort"

	"mass/internal/blog"
	"mass/internal/graph"
)

// Config tunes discovery.
type Config struct {
	// MinSupport is the minimum number of posts two tags must co-occur on
	// for their edge to count. Default 2.
	MinSupport int
	// MinGroupTags drops interest groups with fewer distinct tags.
	// Default 2 (a single free-floating tag is not an interest).
	MinGroupTags int
	// TopBloggers bounds each group's community list. Default 10.
	TopBloggers int
}

func (c Config) withDefaults() Config {
	if c.MinSupport == 0 {
		c.MinSupport = 2
	}
	if c.MinGroupTags == 0 {
		c.MinGroupTags = 2
	}
	if c.TopBloggers == 0 {
		c.TopBloggers = 10
	}
	return c
}

// BloggerScore is one community member with their affinity to the group:
// the number of their tag occurrences inside the group's tag set.
type BloggerScore struct {
	ID    blog.BloggerID
	Score float64
}

// Group is one discovered interest: a connected set of co-occurring tags
// and the bloggers most invested in them.
type Group struct {
	// Tags in descending usage order.
	Tags []string
	// Usage is the total tag occurrences of the group.
	Usage int
	// Bloggers is the community, strongest affinity first.
	Bloggers []BloggerScore
}

// Discover mines interest groups from the post tags of a corpus
// generation. Groups come back ordered by total usage, largest first.
func Discover(c *blog.Frozen, cfg Config) ([]Group, error) {
	cfg = cfg.withDefaults()
	// Count tag usage and pairwise co-occurrence.
	tagCount := map[string]int{}
	pairCount := map[[2]string]int{}
	pids := c.PostIDs()
	for _, pid := range pids {
		tags := dedup(c.Post(pid).Tags)
		for _, t := range tags {
			tagCount[t]++
		}
		for i := 0; i < len(tags); i++ {
			for j := i + 1; j < len(tags); j++ {
				a, b := tags[i], tags[j]
				if b < a {
					a, b = b, a
				}
				pairCount[[2]string{a, b}]++
			}
		}
	}
	if len(tagCount) == 0 {
		return nil, fmt.Errorf("taginterest: corpus has no tags")
	}

	// Build the pruned co-occurrence graph over the sorted tags and take
	// its components.
	tags := make([]string, 0, len(tagCount))
	for t := range tagCount {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	idx := make(map[string]int32, len(tags))
	for i, t := range tags {
		idx[t] = int32(i)
	}
	var from, to []int32
	for pair, n := range pairCount {
		if n >= cfg.MinSupport {
			from = append(from, idx[pair[0]])
			to = append(to, idx[pair[1]])
		}
	}
	g := graph.NewCSR(tags, from, to)
	var groups []Group
	for _, members := range g.Components() {
		if len(members) < cfg.MinGroupTags {
			continue
		}
		grp := Group{Tags: make([]string, len(members))}
		inGroup := map[string]bool{}
		for k, i := range members {
			t := tags[i]
			grp.Tags[k] = t
			grp.Usage += tagCount[t]
			inGroup[t] = true
		}
		sort.Slice(grp.Tags, func(i, j int) bool {
			ci, cj := tagCount[grp.Tags[i]], tagCount[grp.Tags[j]]
			if ci != cj {
				return ci > cj
			}
			return grp.Tags[i] < grp.Tags[j]
		})
		// Community: bloggers by tag occurrences inside the group.
		affinity := map[blog.BloggerID]float64{}
		for _, pid := range pids {
			p := c.Post(pid)
			for _, t := range dedup(p.Tags) {
				if inGroup[t] {
					affinity[p.Author]++
				}
			}
		}
		members := make([]BloggerScore, 0, len(affinity))
		for id, s := range affinity {
			members = append(members, BloggerScore{ID: id, Score: s})
		}
		sort.Slice(members, func(i, j int) bool {
			if members[i].Score != members[j].Score {
				return members[i].Score > members[j].Score
			}
			return members[i].ID < members[j].ID
		})
		if len(members) > cfg.TopBloggers {
			members = members[:cfg.TopBloggers]
		}
		grp.Bloggers = members
		groups = append(groups, grp)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("taginterest: no interest group meets support %d", cfg.MinSupport)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Usage != groups[j].Usage {
			return groups[i].Usage > groups[j].Usage
		}
		return groups[i].Tags[0] < groups[j].Tags[0]
	})
	return groups, nil
}

func dedup(tags []string) []string {
	seen := map[string]bool{}
	out := make([]string, 0, len(tags))
	for _, t := range tags {
		if t != "" && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
