package blog

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotCompactionWork drives a corpus well past its compaction
// bound, one generation per mutation, and checks the amortized work: a
// compaction copies the whole corpus once per linkCompactThreshold
// entity writes, so it costs at most eight copied entries per mutation,
// nine with the overlay entry the write itself adds; and no generation's
// overlay clone exceeds the bound.
func TestSnapshotCompactionWork(t *testing.T) {
	c := NewCorpus()
	for i := 0; i < 200; i++ {
		if err := c.AddBlogger(&Blogger{ID: BloggerID(fmt.Sprintf("b%03d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if err := c.AddPost(&Post{ID: PostID(fmt.Sprintf("p%04d", i)), Author: BloggerID(fmt.Sprintf("b%03d", i%200))}); err != nil {
			t.Fatal(err)
		}
	}
	c.Snapshot()
	c.work = snapshotWork{} // the first base is a full build, not amortized work

	rng := rand.New(rand.NewSource(26))
	mutations, writes, compactions := 0, 0, 0
	for mutations < 3000 {
		b := BloggerID(fmt.Sprintf("b%03d", rng.Intn(200)))
		var err error
		switch rng.Intn(4) {
		case 0:
			err = c.AddPost(&Post{ID: PostID(fmt.Sprintf("w%04d", mutations)), Author: b})
			writes++
		case 1:
			err = c.AddComment(PostID(fmt.Sprintf("p%04d", rng.Intn(2000))), Comment{Commenter: b})
			writes++
		case 2:
			err = c.UpsertBlogger(&Blogger{ID: b, Profile: fmt.Sprint(mutations)})
			writes++
		default:
			err = c.AddLink(b, BloggerID(fmt.Sprintf("b%03d", rng.Intn(200))))
		}
		if err != nil {
			continue // a self-link
		}
		mutations++
		base := c.base
		bound := linkCompactThreshold(len(base.bloggers) + len(base.posts))
		f := c.Snapshot()
		if c.base != base {
			compactions++
		} else if f.ov.size() > bound {
			t.Fatalf("generation overlay holds %d entries, past the compaction bound %d", f.ov.size(), bound)
		}
	}
	if compactions < 2 {
		t.Fatalf("%d compactions in %d mutations: the corpus never passed its bound", compactions, mutations)
	}
	perMutation := float64(c.work.compacted+writes) / float64(mutations)
	t.Logf("%d mutations, %d entity writes, %d compactions copying %d entries: %.2f entries per mutation; overlay clones copied %d",
		mutations, writes, compactions, c.work.compacted, perMutation, c.work.cloned)
	if perMutation > 9 {
		t.Fatalf("compaction and overlay writes copy %.2f entries per mutation, budget 9", perMutation)
	}
}

// refState is a deep copy of a corpus state, the oracle a generation is
// compared with.
type refState struct {
	bloggers map[BloggerID]Blogger
	posts    map[PostID]Post
	links    []Link
	journal  [3]int
	lineage  uint64
	epoch    uint64
}

func captureRef(c *Corpus) refState {
	r := refState{bloggers: map[BloggerID]Blogger{}, posts: map[PostID]Post{}, links: slices.Clone(c.Links),
		journal: [3]int{len(c.journal.Bloggers), len(c.journal.Posts), len(c.journal.Comments)},
		lineage: c.journal.Lineage, epoch: c.linkEpoch}
	for id, b := range c.Bloggers {
		cp := *b
		cp.Friends = slices.Clone(b.Friends)
		r.bloggers[id] = cp
	}
	for id, p := range c.Posts {
		cp := *p
		cp.Comments = slices.Clone(p.Comments)
		cp.Tags = slices.Clone(p.Tags)
		r.posts[id] = cp
	}
	return r
}

// matchRef reports how generation f differs from ref, "" when it does not.
func matchRef(f *Frozen, ref refState) string {
	if f.NumBloggers() != len(ref.bloggers) || f.NumPosts() != len(ref.posts) {
		return fmt.Sprintf("counts %d/%d, want %d/%d", f.NumBloggers(), f.NumPosts(), len(ref.bloggers), len(ref.posts))
	}
	seen := 0
	for id, b := range f.Bloggers() {
		seen++
		if want, ok := ref.bloggers[id]; !ok || !reflect.DeepEqual(*b, want) || f.Blogger(id) != b {
			return fmt.Sprintf("blogger %s = %+v, want %+v", id, *b, want)
		}
	}
	if seen != len(ref.bloggers) {
		return fmt.Sprintf("ranged %d bloggers, want %d", seen, len(ref.bloggers))
	}
	seen = 0
	for id, p := range f.Posts() {
		seen++
		if want, ok := ref.posts[id]; !ok || !reflect.DeepEqual(*p, want) || f.Post(id) != p {
			return fmt.Sprintf("post %s = %+v, want %+v", id, *p, want)
		}
	}
	if seen != len(ref.posts) {
		return fmt.Sprintf("ranged %d posts, want %d", seen, len(ref.posts))
	}
	if !slices.Equal(f.Links(), ref.links) {
		return fmt.Sprintf("links %v, want %v", f.Links(), ref.links)
	}
	j := f.Journal()
	if [3]int{len(j.Bloggers), len(j.Posts), len(j.Comments)} != ref.journal || j.Lineage != ref.lineage || f.LinkEpoch() != ref.epoch {
		return "journal or link epoch moved"
	}
	if f.Blogger("nobody") != nil || f.Post("nothing") != nil {
		return "lookup of an unknown ID succeeded"
	}
	return ""
}

// TestFrozenIsolationDifferential applies random mutation sequences that
// cross several compactions, a Reindex and map writes around the API. The
// generation taken at every step must equal a deep copy of the corpus at
// that step, and go on equaling it after every later mutation, while a
// concurrent reader ranges the newest generation.
func TestFrozenIsolationDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { isolationRun(t, seed) })
	}
}

func isolationRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	c := NewCorpus()
	var bloggers []BloggerID
	var posts []PostID
	addBlogger := func() {
		id := BloggerID(fmt.Sprintf("u%03d", len(bloggers)))
		if err := c.AddBlogger(&Blogger{ID: id, Name: string(id)}); err != nil {
			t.Fatal(err)
		}
		bloggers = append(bloggers, id)
	}
	for range 8 {
		addBlogger()
	}
	pick := func() BloggerID { return bloggers[rng.Intn(len(bloggers))] }
	t0 := time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC)

	// The reader ranges each newly published generation while the writer
	// goes on mutating the corpus.
	var latest atomic.Pointer[Frozen]
	published := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range published {
			f := latest.Load()
			for id, p := range f.Posts() {
				if f.Post(id) != p || f.Blogger(p.Author) == nil {
					t.Errorf("generation lookup disagrees with its iterator on %s", id)
					return
				}
			}
			_ = f.BloggerIDs()
		}
	}()

	var gens []*Frozen
	var refs []refState
	reindexAt := 150 + rng.Intn(50)
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case step == reindexAt:
			c.Reindex()
		case op == 0:
			addBlogger()
		case op <= 3 || len(posts) == 0:
			id := PostID(fmt.Sprintf("p%04d", step))
			if err := c.AddPost(&Post{ID: id, Author: pick(), Body: "body", Posted: t0.Add(time.Duration(step) * time.Hour),
				Comments: []Comment{{Commenter: pick(), Text: "first"}}}); err != nil {
				t.Fatal(err)
			}
			posts = append(posts, id)
		case op <= 5:
			if err := c.AddComment(posts[rng.Intn(len(posts))], Comment{Commenter: pick(), Text: fmt.Sprint(step)}); err != nil {
				t.Fatal(err)
			}
		case op == 6:
			if err := c.UpsertBlogger(&Blogger{ID: pick(), Profile: fmt.Sprint(step), Friends: []BloggerID{pick()}}); err != nil {
				t.Fatal(err)
			}
		case op == 7:
			from, to := pick(), pick()
			if from != to {
				if _, err := c.AddLinkDedup(from, to); err != nil {
					t.Fatal(err)
				}
			}
		case op == 8 && rng.Intn(8) == 0:
			// A post written around the API: the sizes disagree with base
			// plus overlay, so the next generation rebuilds its base.
			id := PostID(fmt.Sprintf("direct%04d", step))
			c.Posts[id] = &Post{ID: id, Author: pick(), Body: "direct"}
			posts = append(posts, id)
		default:
			from, to := pick(), pick()
			if from != to {
				if err := c.AddLink(from, to); err != nil {
					t.Fatal(err)
				}
			}
		}
		f := c.Snapshot()
		latest.Store(f)
		select {
		case published <- struct{}{}:
		default:
		}
		gens, refs = append(gens, f), append(refs, captureRef(c))
		if err := f.Validate(); err != nil {
			t.Fatalf("step %d: generation invalid: %v", step, err)
		}
		if !slices.Equal(f.BloggerIDs(), c.BloggerIDs()) || !slices.Equal(f.PostIDs(), slices.Sorted(maps.Keys(c.Posts))) {
			t.Fatalf("step %d: sorted IDs differ from the corpus's", step)
		}
		check := len(gens) - 1
		if step%50 == 0 {
			check = 0 // every earlier generation, after all mutations since
		}
		for i := check; i < len(gens); i++ {
			if diff := matchRef(gens[i], refs[i]); diff != "" {
				t.Fatalf("step %d: generation %d: %s", step, i, diff)
			}
		}
	}
	close(published)
	wg.Wait()
	if c.work.compacted <= len(refs[0].bloggers)+len(refs[0].posts) {
		t.Fatalf("no compaction after the first base (%d entries copied)", c.work.compacted)
	}
	for i, f := range gens {
		if diff := matchRef(f, refs[i]); diff != "" {
			t.Fatalf("generation %d at the end: %s", i, diff)
		}
	}
}
