package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomEdges returns a messy edge list over n nodes — duplicate edges,
// self-loops, isolated nodes (dangling and disconnected) — as the dense
// pairs NewCSR takes, plus the distinct edges as an independent set of
// ID pairs for the reference checks.
func randomEdges(seed int64, n, e int) (ids []string, from, to []int32, set map[[2]string]bool) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		ids = append(ids, fmt.Sprintf("n%03d", i))
	}
	set = map[[2]string]bool{}
	for i := 0; i < e; i++ {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		reps := 1
		if rng.Intn(4) == 0 {
			reps = 2 // duplicate, must collapse
		}
		for ; reps > 0; reps-- {
			from, to = append(from, a), append(to, b)
		}
		set[[2]string{ids[a], ids[b]}] = true
	}
	return ids, from, to, set
}

func TestCSRMatchesDirected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		ids, from, to, set := randomEdges(seed, 30, 90)
		c := NewCSR(ids, from, to)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if c.NumNodes() != len(ids) || c.NumEdges() != len(set) {
			t.Fatalf("csr %d nodes / %d edges, reference has %d / %d",
				c.NumNodes(), c.NumEdges(), len(ids), len(set))
		}
		outDeg, inDeg := map[string]int{}, map[string]int{}
		for e := range set {
			outDeg[e[0]]++
			inDeg[e[1]]++
		}
		prev := ""
		for i, id := range c.IDs {
			if i > 0 && id <= prev {
				t.Fatalf("IDs not strictly sorted at %d: %q after %q", i, id, prev)
			}
			prev = id
			if j, ok := c.Index(id); !ok || j != i {
				t.Fatalf("Index(%q) = %d,%v, want %d", id, j, ok, i)
			}
			if c.OutDegree(i) != outDeg[id] || c.InDegree(i) != inDeg[id] {
				t.Fatalf("degree mismatch for %q", id)
			}
			for _, jj := range c.Out(i) {
				if !set[[2]string{id, c.IDs[jj]}] {
					t.Fatalf("csr edge %q→%q not in reference", id, c.IDs[jj])
				}
			}
			for _, jj := range c.In(i) {
				if !set[[2]string{c.IDs[jj], id}] {
					t.Fatalf("csr in-edge %q→%q not in reference", c.IDs[jj], id)
				}
			}
			for j, jd := range c.IDs {
				if c.HasEdge(i, j) != set[[2]string{id, jd}] {
					t.Fatalf("HasEdge(%q, %q) disagrees with reference", id, jd)
				}
			}
		}
		// Every dangling node really has no successors, and none is missed.
		dangling := map[int32]bool{}
		for _, i := range c.Dangling {
			dangling[i] = true
		}
		for i := range c.IDs {
			if got, want := dangling[int32(i)], c.OutDegree(i) == 0; got != want {
				t.Fatalf("dangling[%d] = %v, out-degree %d", i, got, c.OutDegree(i))
			}
		}
	}
}

func TestCSREmptyAndSingle(t *testing.T) {
	c := NewCSR(nil, nil, nil)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 0 || c.NumEdges() != 0 || len(c.OutOff) != 1 || len(c.Components()) != 0 {
		t.Fatalf("empty csr = %+v", c)
	}
	c = NewCSR([]string{"solo"}, nil, nil)
	if c.NumNodes() != 1 || len(c.Dangling) != 1 || c.Dangling[0] != 0 {
		t.Fatalf("single-node csr = %+v", c)
	}
	if d := c.Reach(0, 3); len(d) != 1 || d[0] != 0 {
		t.Fatalf("single-node Reach = %v", d)
	}
}

func TestCSRSelfLoopAndDuplicate(t *testing.T) {
	// a→a, a→b, a→b over [a b].
	c := NewCSR([]string{"a", "b"}, []int32{0, 0, 0}, []int32{0, 1, 1})
	if c.NumEdges() != 2 {
		t.Fatalf("want 2 deduplicated edges, got %d", c.NumEdges())
	}
	ai, _ := c.Index("a")
	bi, _ := c.Index("b")
	if c.OutDegree(ai) != 2 || c.InDegree(ai) != 1 || c.InDegree(bi) != 1 {
		t.Fatalf("self-loop adjacency wrong: %+v", c)
	}
}

func TestNewCSRPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"edge arrays differ": func() { NewCSR([]string{"a"}, []int32{0}, nil) },
		"index out of range": func() { NewCSR([]string{"a"}, []int32{0}, []int32{1}) },
		"duplicate id":       func() { NewCSR([]string{"a", "a"}, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}
