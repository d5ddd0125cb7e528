package blog

import "fmt"

// FromParts assembles a corpus from deserialized entities: the inverse of
// walking Bloggers/Posts/Links for serialization. The corpus is Reindexed
// onto a new journal lineage and referential integrity is checked, so a
// successful return is a fully valid corpus; any inconsistency (duplicate or mismatched IDs,
// dangling references) is an error rather than a latent panic later. Links
// keep their given order — serializers that preserve it get back a corpus
// whose Links slice matches the original element for element.
func FromParts(bloggers []*Blogger, posts []*Post, links []Link) (*Corpus, error) {
	c := NewCorpus()
	for _, b := range bloggers {
		if b == nil || b.ID == "" {
			return nil, fmt.Errorf("blog: restore: blogger with empty ID")
		}
		if _, dup := c.Bloggers[b.ID]; dup {
			return nil, fmt.Errorf("blog: restore: duplicate blogger %q", b.ID)
		}
		c.Bloggers[b.ID] = b
	}
	for _, p := range posts {
		if p == nil || p.ID == "" {
			return nil, fmt.Errorf("blog: restore: post with empty ID")
		}
		if _, dup := c.Posts[p.ID]; dup {
			return nil, fmt.Errorf("blog: restore: duplicate post %q", p.ID)
		}
		c.Posts[p.ID] = p
	}
	c.Links = append(c.Links, links...)
	c.Reindex()
	if err := c.Snapshot().Validate(); err != nil {
		return nil, fmt.Errorf("blog: restore: %w", err)
	}
	return c, nil
}
