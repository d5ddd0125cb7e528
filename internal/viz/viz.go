// Package viz builds and renders the post-reply network of the demo's
// visualization panel (Fig. 4): nodes are bloggers, an edge between two
// bloggers carries "the total number comments of one blogger on the other
// blogger's posts". Networks can be laid out deterministically with a
// force-directed algorithm, saved to and loaded from XML ("the
// visualization graph can be saved as an XML file and be loaded in
// future"), and exported as SVG or Graphviz DOT.
package viz

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"

	"mass/internal/blog"
)

// Node is one blogger in the visualization, with its layout position and
// the influence properties shown in the demo's pop-up window.
type Node struct {
	ID BloggerRef `xml:"id,attr"`
	// X, Y are layout coordinates in [0, 1].
	X float64 `xml:"x,attr"`
	Y float64 `xml:"y,attr"`
	// Inf is the blogger's overall influence score (pop-up detail).
	Inf float64 `xml:"inf,attr"`
	// Posts is the blogger's post count (pop-up detail).
	Posts int `xml:"posts,attr"`
}

// BloggerRef aliases blog.BloggerID for XML friendliness.
type BloggerRef = blog.BloggerID

// Edge is a post-reply relationship: Commenter commented Count times on
// posts by Author — the number shown on the line in Fig. 4.
type Edge struct {
	Commenter BloggerRef `xml:"commenter,attr"`
	Author    BloggerRef `xml:"author,attr"`
	Count     int        `xml:"count,attr"`
}

// Network is a visualizable post-reply graph.
type Network struct {
	XMLName xml.Name   `xml:"postReplyNetwork"`
	Center  BloggerRef `xml:"center,attr,omitempty"`
	Nodes   []Node     `xml:"nodes>node"`
	Edges   []Edge     `xml:"edges>edge"`
}

// Build extracts the post-reply network within radius hops of center.
// scores (optional) fills each node's Inf property. The demo flow is:
// double-click a recommended blogger → see their network.
func Build(c *blog.Frozen, center blog.BloggerID, radius int, scores map[blog.BloggerID]float64) (*Network, error) {
	if c.Blogger(center) == nil {
		return nil, fmt.Errorf("viz: unknown blogger %q", center)
	}
	members := blog.Neighborhood(c, center, radius)
	// One scan over the members' posts counts each author's posts and
	// each commenter→author pair among the members.
	posts := map[blog.BloggerID]int{}
	counts := map[[2]blog.BloggerID]int{}
	for _, p := range c.Posts() {
		if _, in := members[p.Author]; !in {
			continue
		}
		posts[p.Author]++
		for _, cm := range p.Comments {
			if _, in := members[cm.Commenter]; in && cm.Commenter != p.Author {
				counts[[2]blog.BloggerID{cm.Commenter, p.Author}]++
			}
		}
	}
	n := &Network{Center: center}
	ids := make([]blog.BloggerID, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n.Nodes = append(n.Nodes, Node{ID: id, Inf: scores[id], Posts: posts[id]})
	}
	for k, cnt := range counts {
		n.Edges = append(n.Edges, Edge{Commenter: k[0], Author: k[1], Count: cnt})
	}
	sort.Slice(n.Edges, func(i, j int) bool {
		a, b := n.Edges[i], n.Edges[j]
		return a.Commenter < b.Commenter || a.Commenter == b.Commenter && a.Author < b.Author
	})
	return n, nil
}

// Layout positions nodes with a deterministic Fruchterman–Reingold force
// simulation seeded by `seed`. Coordinates end up normalized to [0,1]².
func (n *Network) Layout(seed int64, iterations int) {
	count := len(n.Nodes)
	if count == 0 {
		return
	}
	if iterations <= 0 {
		iterations = 120
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, count)
	ys := make([]float64, count)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	idx := make(map[BloggerRef]int, count)
	for i, node := range n.Nodes {
		idx[node.ID] = i
	}
	k := math.Sqrt(1 / float64(count)) // ideal edge length
	temp := 0.1
	for it := 0; it < iterations; it++ {
		dx := make([]float64, count)
		dy := make([]float64, count)
		// Repulsion between all pairs.
		for i := 0; i < count; i++ {
			for j := i + 1; j < count; j++ {
				ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
				dist := math.Hypot(ddx, ddy)
				if dist < 1e-9 {
					dist = 1e-9
					ddx, ddy = 1e-9, 0
				}
				f := k * k / dist
				ux, uy := ddx/dist, ddy/dist
				dx[i] += ux * f
				dy[i] += uy * f
				dx[j] -= ux * f
				dy[j] -= uy * f
			}
		}
		// Attraction along edges, stronger for heavier comment counts.
		for _, e := range n.Edges {
			i, j := idx[e.Commenter], idx[e.Author]
			ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
			dist := math.Hypot(ddx, ddy)
			if dist < 1e-9 {
				continue
			}
			f := dist * dist / k * math.Min(float64(e.Count), 5) / 5
			ux, uy := ddx/dist, ddy/dist
			dx[i] -= ux * f
			dy[i] -= uy * f
			dx[j] += ux * f
			dy[j] += uy * f
		}
		for i := 0; i < count; i++ {
			d := math.Hypot(dx[i], dy[i])
			if d > 1e-9 {
				step := math.Min(d, temp)
				xs[i] += dx[i] / d * step
				ys[i] += dy[i] / d * step
			}
		}
		temp *= 0.95
	}
	normalize(xs)
	normalize(ys)
	for i := range n.Nodes {
		n.Nodes[i].X = xs[i]
		n.Nodes[i].Y = ys[i]
	}
}

func normalize(v []float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	span := hi - lo
	if span < 1e-12 {
		for i := range v {
			v[i] = 0.5
		}
		return
	}
	for i := range v {
		v[i] = (v[i] - lo) / span
	}
}

// WriteXML encodes the network as XML (the demo's save format).
func (n *Network) WriteXML(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(n); err != nil {
		return fmt.Errorf("viz: encode: %w", err)
	}
	return enc.Flush()
}

// ReadXML decodes a network previously saved with WriteXML.
func ReadXML(r io.Reader) (*Network, error) {
	var n Network
	if err := xml.NewDecoder(r).Decode(&n); err != nil {
		return nil, fmt.Errorf("viz: decode: %w", err)
	}
	return &n, nil
}

// SaveXML writes the network to path.
func (n *Network) SaveXML(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := n.WriteXML(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadXML reads a network from path.
func LoadXML(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadXML(f)
}

// WriteSVG renders the laid-out network as a standalone SVG of the given
// pixel size. Node radius scales with influence; edge labels carry the
// comment counts, as in Fig. 4.
func (n *Network) WriteSVG(w io.Writer, width, height int) error {
	if width <= 0 || height <= 0 {
		return fmt.Errorf("viz: non-positive SVG size %dx%d", width, height)
	}
	margin := 40.0
	sx := func(x float64) float64 { return margin + x*(float64(width)-2*margin) }
	sy := func(y float64) float64 { return margin + y*(float64(height)-2*margin) }
	maxInf := 0.0
	for _, node := range n.Nodes {
		if node.Inf > maxInf {
			maxInf = node.Inf
		}
	}
	pos := make(map[BloggerRef][2]float64, len(n.Nodes))
	for _, node := range n.Nodes {
		pos[node.ID] = [2]float64{sx(node.X), sy(node.Y)}
	}
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">`+"\n", width, height)
	fmt.Fprintln(w, `<rect width="100%" height="100%" fill="white"/>`)
	for _, e := range n.Edges {
		p1, p2 := pos[e.Commenter], pos[e.Author]
		fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#999" stroke-width="1"/>`+"\n",
			p1[0], p1[1], p2[0], p2[1])
		mx, my := (p1[0]+p2[0])/2, (p1[1]+p2[1])/2
		fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-size="10" fill="#555">%d</text>`+"\n", mx, my, e.Count)
	}
	for _, node := range n.Nodes {
		p := pos[node.ID]
		r := 6.0
		if maxInf > 0 {
			r = 6 + 10*node.Inf/maxInf
		}
		fill := "#4a90d9"
		if node.ID == n.Center {
			fill = "#d94a4a"
		}
		fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s"/>`+"\n", p[0], p[1], r, fill)
		fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-size="11" text-anchor="middle">%s</text>`+"\n",
			p[0], p[1]-r-3, xmlEscape(string(node.ID)))
	}
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}

// WriteDOT renders the network as a Graphviz digraph with comment counts
// as edge labels.
func (n *Network) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph postreply {"); err != nil {
		return err
	}
	for _, node := range n.Nodes {
		shape := "ellipse"
		if node.ID == n.Center {
			shape = "doublecircle"
		}
		fmt.Fprintf(w, "  %q [shape=%s label=\"%s\\ninf=%.4f posts=%d\"];\n",
			node.ID, shape, node.ID, node.Inf, node.Posts)
	}
	for _, e := range n.Edges {
		fmt.Fprintf(w, "  %q -> %q [label=\"%d\"];\n", e.Commenter, e.Author, e.Count)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func xmlEscape(s string) string {
	var buf []byte
	for _, r := range s {
		switch r {
		case '<':
			buf = append(buf, "&lt;"...)
		case '>':
			buf = append(buf, "&gt;"...)
		case '&':
			buf = append(buf, "&amp;"...)
		default:
			buf = append(buf, string(r)...)
		}
	}
	return string(buf)
}
