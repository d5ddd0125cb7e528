// Package netstats computes structural statistics of a blogosphere's
// networks — the hyperlink graph (blog.Frozen.LinkCSR) and the post-reply
// graph (CommentGraph) — for mass-rank -netstats: component structure,
// degree distribution with a power-law tail estimate, reciprocity, and
// local clustering. Both networks are graph.CSR views over the corpus's
// sorted bloggers. The demo's visualization panel shows these networks;
// netstats quantifies them.
package netstats

import (
	"fmt"
	"math"
	"slices"

	"mass/internal/blog"
	"mass/internal/graph"
)

// Report summarizes one directed network.
type Report struct {
	Nodes, Edges int
	// Components is the number of weakly connected components; Largest is
	// the biggest component's size.
	Components, Largest int
	// MaxInDegree and MeanInDegree describe the in-degree distribution.
	MaxInDegree  int
	MeanInDegree float64
	// PowerLawAlpha is the continuous MLE exponent of the in-degree tail
	// (degrees >= 1): alpha = 1 + n / Σ ln(d/dmin). Zero when there are
	// no positive degrees.
	PowerLawAlpha float64
	// Reciprocity is the fraction of edges whose reverse edge exists.
	Reciprocity float64
	// Clustering is the mean local clustering coefficient over nodes with
	// at least two (undirected) neighbors.
	Clustering float64
}

// CommentGraph builds the blogger post-reply graph (commenter → author,
// self-replies dropped) over the generation's sorted bloggers. The
// hyperlink graph needs no builder here: it is the generation's cached
// c.LinkCSR().
func CommentGraph(c *blog.Frozen) *graph.CSR {
	return c.BloggerGraph(func(add func(from, to blog.BloggerID)) {
		for _, p := range c.Posts() {
			for _, cm := range p.Comments {
				if cm.Commenter != p.Author {
					add(cm.Commenter, p.Author)
				}
			}
		}
	})
}

// Analyze computes the structural report of a directed graph.
func Analyze(g *graph.CSR) Report {
	r := Report{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if r.Nodes == 0 {
		return r
	}
	comps := g.Components()
	r.Components = len(comps)
	r.Largest = len(comps[0])

	var degSum int
	var tail []int
	for i := 0; i < r.Nodes; i++ {
		d := g.InDegree(i)
		degSum += d
		if d > r.MaxInDegree {
			r.MaxInDegree = d
		}
		if d >= 1 {
			tail = append(tail, d)
		}
	}
	r.MeanInDegree = float64(degSum) / float64(r.Nodes)
	r.PowerLawAlpha = powerLawAlpha(tail, 1)

	// Reciprocity.
	if r.Edges > 0 {
		recip := 0
		for u := 0; u < r.Nodes; u++ {
			for _, v := range g.Out(u) {
				if g.HasEdge(int(v), u) {
					recip++
				}
			}
		}
		r.Reciprocity = float64(recip) / float64(r.Edges)
	}

	// Local clustering over the undirected projection: a node's neighbors
	// are its out- and in-row, deduplicated, without itself.
	var ccSum float64
	ccN := 0
	var neigh []int32
	for u := 0; u < r.Nodes; u++ {
		neigh = append(append(neigh[:0], g.Out(u)...), g.In(u)...)
		slices.Sort(neigh)
		neigh = slices.DeleteFunc(slices.Compact(neigh), func(v int32) bool { return int(v) == u })
		if len(neigh) < 2 {
			continue
		}
		links := 0
		for i, a := range neigh {
			for _, b := range neigh[i+1:] {
				if g.HasEdge(int(a), int(b)) || g.HasEdge(int(b), int(a)) {
					links++
				}
			}
		}
		possible := len(neigh) * (len(neigh) - 1) / 2
		ccSum += float64(links) / float64(possible)
		ccN++
	}
	if ccN > 0 {
		r.Clustering = ccSum / float64(ccN)
	}
	return r
}

// powerLawAlpha is the continuous maximum-likelihood exponent estimate
// for degrees >= dmin (Clauset–Shalizi–Newman form).
func powerLawAlpha(degrees []int, dmin int) float64 {
	if len(degrees) == 0 || dmin < 1 {
		return 0
	}
	var sum float64
	n := 0
	for _, d := range degrees {
		if d >= dmin {
			sum += math.Log(float64(d) / float64(dmin))
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return 1 + float64(n)/sum
}

// String renders the report on one line.
func (r Report) String() string {
	return fmt.Sprintf("nodes=%d edges=%d components=%d largest=%d maxIn=%d meanIn=%.2f alpha=%.2f reciprocity=%.3f clustering=%.3f",
		r.Nodes, r.Edges, r.Components, r.Largest, r.MaxInDegree,
		r.MeanInDegree, r.PowerLawAlpha, r.Reciprocity, r.Clustering)
}
