package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

// csrOf builds a CSR over the sorted union of nodes and the edges'
// endpoints; duplicate edges are passed through for NewCSR to collapse.
func csrOf(nodes []string, edges ...[2]string) *CSR {
	ids := append([]string(nil), nodes...)
	for _, e := range edges {
		ids = append(ids, e[0], e[1])
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	from := make([]int32, len(edges))
	to := make([]int32, len(edges))
	for k, e := range edges {
		f, _ := slices.BinarySearch(ids, e[0])
		t, _ := slices.BinarySearch(ids, e[1])
		from[k], to[k] = int32(f), int32(t)
	}
	return NewCSR(ids, from, to)
}

func diamond(extra ...string) *CSR {
	return csrOf(extra, [2]string{"a", "b"}, [2]string{"a", "c"}, [2]string{"b", "d"}, [2]string{"c", "d"})
}

// reach runs Reach from the node named seed and keys the reached nodes'
// distances by ID.
func reach(c *CSR, seed string, radius int) map[string]int {
	s, _ := c.Index(seed)
	out := map[string]int{}
	for i, d := range c.Reach(s, radius) {
		if d >= 0 {
			out[c.IDs[i]] = d
		}
	}
	return out
}

func TestAddEdgeDedup(t *testing.T) {
	c := csrOf(nil, [2]string{"a", "b"}, [2]string{"a", "b"})
	if c.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", c.NumEdges())
	}
	a, _ := c.Index("a")
	b, _ := c.Index("b")
	if c.OutDegree(a) != 1 || c.InDegree(b) != 1 {
		t.Fatalf("degrees: out(a)=%d in(b)=%d", c.OutDegree(a), c.InDegree(b))
	}
	if !c.HasEdge(a, b) || c.HasEdge(b, a) || c.HasEdge(a, a) {
		t.Fatal("HasEdge direction wrong")
	}
}

func TestBFS(t *testing.T) {
	c := diamond("zzz")
	d := reach(c, "a", 10)
	want := map[string]int{"a": 0, "b": 1, "c": 1, "d": 2}
	if len(d) != len(want) {
		t.Fatalf("Reach = %v, want %v", d, want)
	}
	for k, v := range want {
		if d[k] != v {
			t.Fatalf("Reach dist[%s] = %d, want %d (all: %v)", k, d[k], v, d)
		}
	}
	if _, ok := reach(c, "a", 1)["d"]; ok {
		t.Fatal("radius 1 must not reach d")
	}
	for _, radius := range []int{0, -3} {
		if got := reach(c, "b", radius); len(got) != 1 || got["b"] != 0 {
			t.Fatalf("radius %d: Reach = %v, want only the seed", radius, got)
		}
	}
}

func TestBFSDirectionality(t *testing.T) {
	c := csrOf(nil, [2]string{"a", "b"})
	if d, ok := reach(c, "b", 5)["a"]; !ok || d != 1 {
		t.Fatal("Reach must walk in-edges too: b reaches a at 1")
	}
}

func TestComponents(t *testing.T) {
	c := csrOf([]string{"lonely"}, [2]string{"a", "b"}, [2]string{"a", "c"},
		[2]string{"b", "d"}, [2]string{"c", "d"}, [2]string{"y", "x"})
	comps := c.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 4 || c.IDs[comps[0][0]] != "a" {
		t.Fatalf("largest component = %v", comps[0])
	}
	if len(comps[1]) != 2 || len(comps[2]) != 1 || c.IDs[comps[2][0]] != "lonely" {
		t.Fatalf("component sizes wrong: %v", comps)
	}
	// Equal sizes are ordered by their smallest node.
	c = csrOf(nil, [2]string{"q", "p"}, [2]string{"b", "a"})
	comps = c.Components()
	if len(comps) != 2 || c.IDs[comps[0][0]] != "a" || c.IDs[comps[1][0]] != "p" {
		t.Fatalf("tie order wrong: %v over %v", comps, c.IDs)
	}
}

func TestValidate(t *testing.T) {
	c := diamond()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a row's order directly.
	row := c.OutTo[c.OutOff[0]:c.OutOff[1]]
	row[0], row[1] = row[1], row[0]
	if err := c.Validate(); err == nil {
		t.Fatal("expected validation error after corruption")
	}
}

func TestSelfLoopAllowedAtGraphLevel(t *testing.T) {
	c := csrOf(nil, [2]string{"a", "a"}, [2]string{"a", "a"})
	if c.NumEdges() != 1 || c.NumNodes() != 1 || !c.HasEdge(0, 0) {
		t.Fatal("self-loop must be stored once")
	}
	if comps := c.Components(); len(comps) != 1 || len(comps[0]) != 1 {
		t.Fatalf("self-loop components = %v", comps)
	}
}

// Property: for random edge lists, node count == distinct endpoints, sum
// of out-degrees == edge count, HasEdge agrees with the in-rows, and the
// components partition the nodes.
func TestGraphProperties(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		edges := make([][2]string, len(pairs))
		distinct := map[string]struct{}{}
		for k, p := range pairs {
			edges[k] = [2]string{string(rune('a' + p[0]%26)), string(rune('a' + p[1]%26))}
			distinct[edges[k][0]] = struct{}{}
			distinct[edges[k][1]] = struct{}{}
		}
		c := csrOf(nil, edges...)
		if c.NumNodes() != len(distinct) {
			return false
		}
		sum := 0
		for i := range c.IDs {
			sum += c.OutDegree(i)
			for _, j := range c.In(i) {
				if !c.HasEdge(int(j), i) {
					return false
				}
			}
		}
		if sum != c.NumEdges() {
			return false
		}
		covered := 0
		for _, comp := range c.Components() {
			covered += len(comp)
		}
		return covered == c.NumNodes() && c.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every Reach distance is at most the radius, and nodes joined
// by an edge (either direction) differ by at most 1 when both are reached.
func TestBFSProperty(t *testing.T) {
	f := func(pairs [][2]uint8, depth uint8) bool {
		edges := make([][2]string, len(pairs))
		for k, p := range pairs {
			edges[k] = [2]string{string(rune('a' + p[0]%16)), string(rune('a' + p[1]%16))}
		}
		c := csrOf(nil, edges...)
		if c.NumNodes() == 0 {
			return true
		}
		radius := int(depth % 5)
		dist := c.Reach(0, radius)
		for u, d := range dist {
			if d > radius || d < -1 {
				return false
			}
			if d < 0 {
				continue
			}
			for _, v := range slices.Concat(c.Out(u), c.In(u)) {
				if dv := dist[v]; dv > d+1 || (dv < 0 && d < radius) {
					return false
				}
			}
		}
		return dist[0] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
