package main

import (
	"context"
	"time"
)

// The traffic both runs send, untraced against the child process and
// traced against the embedded stack: the standing subscriptions, the
// warm-up, the open-loop phase and the closed-loop goodput phase.

// subscribe registers the workload's standing subscriptions and follows
// the freshness probe's event stream until ctx ends. The returned wait
// blocks until the stream has stopped; call it after cancelling ctx.
// Workloads without subscriptions get a no-op.
func subscribe(ctx context.Context, cfg runConfig, d *driver) (wait func(), err error) {
	if !cfg.w.sse {
		return func() {}, nil
	}
	events, err := registerSubscriptions(ctx, d, cfg.info.domains[:4])
	if err != nil {
		return nil, err
	}
	ready, done := make(chan error, 1), make(chan struct{})
	go func() {
		defer close(done)
		followEvents(ctx, d.base, events, d.vis, ready)
	}()
	if err := <-ready; err != nil {
		<-done
		return nil, err
	}
	return func() { <-done }, nil
}

// warmUp sends one pass over a sample of the read mix, not measured, so
// the query cache holds what a long-running server's does.
func warmUp(ctx context.Context, cfg runConfig, d *driver, rep *report) {
	if cfg.w.readRate <= 0 {
		return
	}
	g := newGen(cfg.info, cfg.seed+1)
	for i := 0; i < 200; i++ {
		o := g.read(cfg.w.trends)
		rep.attempted++
		if r := d.do(ctx, 0, o, time.Now(), "warmup"); r.err != "" {
			rep.fail("warm-up %s %s: %s", o.method, o.path, r.err)
		}
	}
}

// phases splits the measured time between the open-loop phase and the
// closed-loop goodput phase.
func (cfg runConfig) phases() (open, closed time.Duration) {
	open = time.Duration(float64(cfg.dur) * (1 - cfg.w.goodputShare))
	return open, cfg.dur - open
}

// openPhase sends the workload's open-loop schedule, drawn from g, and
// returns when every request and probe is done.
func openPhase(ctx context.Context, cfg runConfig, d *driver, g *gen) {
	w := cfg.w
	dur, _ := cfg.phases()
	start := time.Now().Add(20 * time.Millisecond)
	d.openLoop(ctx, openLoop(g, w, dur), start, w.writeRate > 0 && !w.sse, start.Add(dur+2*time.Second))
}

// closedPhase runs the closed-loop goodput phase over reads drawn from g
// and returns how long it ran (0 for workloads without one).
func closedPhase(ctx context.Context, cfg runConfig, d *driver, g *gen) time.Duration {
	_, dur := cfg.phases()
	if cfg.w.goodputShare <= 0 {
		return 0
	}
	ops := make([]*op, 0, 4096)
	for i := 0; i < 4096; i++ {
		ops = append(ops, g.read(cfg.w.trends))
	}
	return d.closedLoop(ctx, ops, dur)
}
