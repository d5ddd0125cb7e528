package core

import (
	"errors"
	"fmt"

	"mass/internal/blog"
	"mass/internal/blogserver"
	"mass/internal/wal"
)

// Every write takes one form inside the engine and the cluster: a list of
// wal.Ops. Batch.Ops and PageOps are the only renderers, applyOp is the
// only applier, and an op is logged iff applying it changed the corpus —
// so live ingest, spill replay and WAL recovery reproduce one another.

// ErrClosed is returned by every mutation path once the engine has been
// closed or killed. The cluster supervisor matches it to classify a
// rejected write as transient (the shard is restarting) rather than bad.
var ErrClosed = errors.New("core: engine is closed")

// Batch is a bundle of mutations applied atomically under one lock
// acquisition — the client ingest write, rendered by Ops.
type Batch struct {
	Bloggers []*blog.Blogger
	Posts    []*blog.Post
	Comments []BatchComment
	Links    []blog.Link
}

// BatchComment targets one post with one comment.
type BatchComment struct {
	Post    blog.PostID
	Comment blog.Comment
}

// Ops renders the batch as WAL ops in apply order: bloggers, posts,
// comments, links.
func (b Batch) Ops() []wal.Op {
	ops := make([]wal.Op, 0, len(b.Bloggers)+len(b.Posts)+len(b.Comments)+len(b.Links))
	for _, bl := range b.Bloggers {
		ops = append(ops, wal.Op{Kind: wal.OpBlogger, Blogger: bl})
	}
	for _, p := range b.Posts {
		ops = append(ops, wal.Op{Kind: wal.OpPost, Post: p})
	}
	for _, bc := range b.Comments {
		ops = append(ops, wal.Op{Kind: wal.OpComment, PostID: bc.Post, Comment: &bc.Comment})
	}
	for _, l := range b.Links {
		ops = append(ops, wal.Op{Kind: wal.OpLink, From: l.From, To: l.To})
	}
	return ops
}

// PageOps renders a crawled space page as WAL ops: the profile upsert, the
// posts, then the links and linkbacks with self-links left out.
func PageOps(page *blogserver.Page) []wal.Op {
	b := page.Blogger
	ops := []wal.Op{{Kind: wal.OpBlogger, Blogger: &b}}
	for _, p := range page.Posts {
		ops = append(ops, wal.Op{Kind: wal.OpPost, Post: &p})
	}
	for _, target := range page.Links {
		if target != b.ID {
			ops = append(ops, wal.Op{Kind: wal.OpLink, From: b.ID, To: target})
		}
	}
	for _, source := range page.Linkbacks {
		if source != b.ID {
			ops = append(ops, wal.Op{Kind: wal.OpLink, From: source, To: b.ID})
		}
	}
	return ops
}

// WriteMode says how a write treats records the corpus already holds.
type WriteMode uint8

const (
	// BatchWrite is a client batch: a stored post is an error, and every
	// applied op counts toward the flush debounce.
	BatchWrite WriteMode = iota
	// PageWrite is a crawled page: re-crawls re-serve old posts, so stored
	// posts are skipped, and the profile upsert is always logged (it may
	// admit friend stubs) but counts only when it creates the blogger or
	// enriches a stub.
	PageWrite
	// StubWrite admits blogger ops as ID stubs — the endpoints of
	// cross-shard links on their owner shards; a known blogger is left
	// alone.
	StubWrite
)

// AddBatch applies every mutation in the batch atomically: either all of
// it lands, or none does and the first error is returned.
func (e *Engine) AddBatch(b Batch) error { return e.Write(BatchWrite, b.Ops()) }

// IngestPage folds one crawled space page into the corpus: the blogger
// profile, its new posts, and the link edges in both directions. It
// implements crawler.Sink, so a streaming crawl can feed the engine
// directly.
func (e *Engine) IngestPage(page *blogserver.Page) error {
	if page == nil {
		return fmt.Errorf("core: nil page")
	}
	return e.Write(PageWrite, PageOps(page))
}

// Write applies ops as one atomic write. The whole list is validated
// against the corpus before anything is applied, so a rejected write
// changes nothing; then every op goes through applyOp and is logged iff it
// changed the corpus. Unknown authors, commenters, friends and link
// endpoints are admitted as stubs.
func (e *Engine) Write(mode WriteMode, ops []wal.Op) error {
	if len(ops) == 0 {
		return nil
	}
	return e.mutate(func(c *blog.Corpus, staged *[]wal.Op) (int, error) {
		if err := validateOps(c, mode, ops); err != nil {
			return 0, err
		}
		counted := 0
		for i := range ops {
			op := &ops[i]
			if mode == StubWrite && op.Kind == wal.OpBlogger && c.Bloggers[op.Blogger.ID] != nil {
				continue
			}
			counts := mode != PageWrite || op.Kind != wal.OpBlogger || enriches(c, op.Blogger)
			n, err := logApply(c, staged, op)
			if err != nil {
				return counted, err
			}
			if counts {
				counted += n
			}
		}
		return counted, nil
	})
}

// enriches reports whether upserting b creates the blogger or fills in a
// stub (profiles feed the recommenders); re-delivering an already-enriched
// profile does not.
func enriches(c *blog.Corpus, b *blog.Blogger) bool {
	old, known := c.Bloggers[b.ID]
	return !known || (old.Name == "" && old.Profile == "" && (b.Name != "" || b.Profile != ""))
}

// ApplyOps replays logged ops into the live engine in order — the spill
// replay path. Each op is its own write through applyOp, re-logged to this
// engine's own WAL iff it changed the corpus, so replayed state is exactly
// as durable as directly ingested state. Replay is idempotent
// at-least-once: a post or link the corpus already holds, or an identical
// duplicate comment, is skipped silently (counted in dropped), so
// replaying a prefix twice — e.g. after a crash mid-replay — converges
// instead of erroring. Ops that fail validation are also dropped (a poison
// record must not wedge the queue forever); only an engine-level failure
// (closed, WAL fail-stop) aborts, reporting how far replay got.
func (e *Engine) ApplyOps(ops []wal.Op) (applied, dropped int, err error) {
	for i := range ops {
		op := &ops[i]
		merr := e.mutate(func(c *blog.Corpus, staged *[]wal.Op) (int, error) {
			if op.Kind == wal.OpComment && op.Comment != nil && c.Posts[op.PostID] != nil {
				for _, cm := range c.Posts[op.PostID].Comments {
					if cm.Commenter == op.Comment.Commenter && cm.Text == op.Comment.Text &&
						cm.Posted.Equal(op.Comment.Posted) {
						return 0, errOpDropped
					}
				}
			}
			n, err := logApply(c, staged, op)
			if err == nil && n == 0 {
				err = errOpDropped
			}
			return n, err
		})
		switch {
		case merr == nil:
			applied++
		case errors.Is(merr, errOpDropped):
			dropped++
		case errors.Is(merr, ErrClosed):
			return applied, dropped, merr
		default:
			if derr := e.DurabilityErr(); derr != nil {
				return applied, dropped, derr
			}
			dropped++
		}
	}
	return applied, dropped, nil
}

// errOpDropped marks a replayed op recognized as already applied.
var errOpDropped = errors.New("core: op already applied")

// mutate runs fn on the corpus under the write lock. fn stages the ops it
// applied on staged (nil when durability is off: nothing is logged) and
// reports how many mutations they count: deduplicated re-deliveries count
// zero, so idempotent re-crawls don't trigger pointless re-analyses.
// Reaching the debounce threshold kicks the flusher.
//
// Staged ops are appended to the WAL before mutate returns, still under
// the write lock, so log order is exactly apply order and a corpus frozen
// under the lock matches the WAL prefix at walIdx. An append failure is
// returned to the caller — the mutation is applied in memory but is NOT
// durable, and the WAL's sticky fail-stop makes every later mutation fail
// too, so the divergence cannot silently grow.
func (e *Engine) mutate(fn func(c *blog.Corpus, staged *[]wal.Op) (int, error)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	var ops []wal.Op
	var staged *[]wal.Op
	if e.wal != nil {
		staged = &ops
	}
	n, err := fn(e.corpus, staged)
	if len(ops) > 0 {
		if err := e.wal.Append(ops...); err != nil {
			e.lastErr = err
			return err
		}
		e.walIdx += uint64(len(ops))
	}
	e.pending += n
	e.total += uint64(n)
	if e.pending >= e.opts.FlushEvery {
		select {
		case e.kick <- struct{}{}:
		default:
		}
	}
	return err
}

// validateOps checks everything that could make applying ops fail, without
// touching c: empty IDs, duplicate posts (against the corpus and earlier
// in the list; a page skips them instead), comments on posts that will not
// exist, self-links. Unknown bloggers never fail — they are admitted as
// stubs on apply.
func validateOps(c *blog.Corpus, mode WriteMode, ops []wal.Op) error {
	added := make(map[blog.PostID]bool)
	for i := range ops {
		op := &ops[i]
		if op.Kind == wal.OpPost && op.Post != nil && mode == PageWrite &&
			(added[op.Post.ID] || c.Posts[op.Post.ID] != nil) {
			continue
		}
		if err := checkOp(c, op, added); err != nil {
			return err
		}
		if op.Kind == wal.OpPost {
			added[op.Post.ID] = true
		}
	}
	return nil
}

// checkOp reports why op cannot land on c, counting the posts in added as
// stored too; nil means applyOp will apply it without error.
func checkOp(c *blog.Corpus, op *wal.Op, added map[blog.PostID]bool) error {
	switch op.Kind {
	case wal.OpBlogger:
		return validateBlogger(op.Blogger)
	case wal.OpPost:
		if err := validatePost(c, op.Post); err != nil {
			return err
		}
		if added[op.Post.ID] {
			return fmt.Errorf("core: duplicate post %q", op.Post.ID)
		}
	case wal.OpComment:
		switch {
		case op.Comment == nil:
			return fmt.Errorf("core: comment op without comment")
		case op.Comment.Commenter == "":
			return fmt.Errorf("core: comment on %q has an empty commenter", op.PostID)
		case c.Posts[op.PostID] == nil && !added[op.PostID]:
			return fmt.Errorf("core: comment on unknown post %q", op.PostID)
		}
	case wal.OpLink:
		if op.From == "" || op.To == "" {
			return fmt.Errorf("core: link endpoints must be non-empty")
		}
		if op.From == op.To {
			return fmt.Errorf("core: self-link %q rejected", op.From)
		}
	default:
		return fmt.Errorf("core: unknown WAL op kind %d", op.Kind)
	}
	return nil
}

// validateBlogger checks everything that could make a blogger upsert
// fail, before any stub is admitted.
func validateBlogger(b *blog.Blogger) error {
	if b == nil || b.ID == "" {
		return fmt.Errorf("core: blogger must have a non-empty ID")
	}
	for _, f := range b.Friends {
		if f == "" {
			return fmt.Errorf("core: blogger %q has an empty friend ID", b.ID)
		}
	}
	return nil
}

// validatePost checks everything that could make adding p fail, before
// any stub is admitted, so a rejected post leaves no partial state.
func validatePost(c *blog.Corpus, p *blog.Post) error {
	if p == nil || p.ID == "" {
		return fmt.Errorf("core: post must have a non-empty ID")
	}
	if p.Author == "" {
		return fmt.Errorf("core: post %q has an empty author", p.ID)
	}
	if _, dup := c.Posts[p.ID]; dup {
		return fmt.Errorf("core: duplicate post %q", p.ID)
	}
	for i, cm := range p.Comments {
		if cm.Commenter == "" {
			return fmt.Errorf("core: post %q comment %d has an empty commenter", p.ID, i)
		}
	}
	return nil
}

// logApply lands op through applyOp and, when staged is non-nil, stages
// it there iff it changed the corpus.
func logApply(c *blog.Corpus, staged *[]wal.Op, op *wal.Op) (int, error) {
	n, err := applyOp(c, op)
	if n > 0 && staged != nil {
		*staged = append(*staged, *op)
	}
	return n, err
}

// applyOp lands one op on c — the applier behind every write, spill replay
// and WAL recovery — and reports the mutations it contributes: 1 when it
// changed the corpus, 0 for a post or link c already holds, which it
// leaves as is. The op is checked before c is touched, so a failing op
// changes nothing.
func applyOp(c *blog.Corpus, op *wal.Op) (int, error) {
	if op.Kind == wal.OpPost && op.Post != nil && c.Posts[op.Post.ID] != nil {
		return 0, nil
	}
	if err := checkOp(c, op, nil); err != nil {
		return 0, err
	}
	var err error
	switch op.Kind {
	case wal.OpBlogger:
		for _, f := range op.Blogger.Friends {
			ensureBlogger(c, f)
		}
		err = c.UpsertBlogger(op.Blogger)
	case wal.OpPost:
		ensureBlogger(c, op.Post.Author)
		for _, cm := range op.Post.Comments {
			ensureBlogger(c, cm.Commenter)
		}
		err = c.AddPost(op.Post)
	case wal.OpComment:
		ensureBlogger(c, op.Comment.Commenter)
		err = c.AddComment(op.PostID, *op.Comment)
	case wal.OpLink:
		ensureBlogger(c, op.From)
		ensureBlogger(c, op.To)
		if added, lerr := c.AddLinkDedup(op.From, op.To); !added {
			return 0, lerr
		}
	}
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// ensureBlogger admits id as a stub when unknown.
func ensureBlogger(c *blog.Corpus, id blog.BloggerID) {
	if c.Bloggers[id] == nil {
		// checkOp has ruled out the empty ID, the only way adding an
		// unknown blogger can fail.
		_ = c.AddBlogger(&blog.Blogger{ID: id})
	}
}
