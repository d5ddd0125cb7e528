package viz_test

import (
	"fmt"
	"log"

	"mass/internal/blog"
	"mass/internal/viz"
)

// ExampleBuild extracts the post-reply network around a blogger, exactly
// the demo's double-click-to-visualize flow (Fig. 4).
func ExampleBuild() {
	corpus := blog.Figure1Corpus()
	net, err := viz.Build(corpus.Snapshot(), "Amery", 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("center=%s nodes=%d\n", net.Center, len(net.Nodes))
	for _, e := range net.Edges {
		if e.Author == "Amery" {
			fmt.Printf("%s -> Amery: %d comments\n", e.Commenter, e.Count)
		}
	}
	// Output:
	// center=Amery nodes=6
	// Bob -> Amery: 1 comments
	// Cary -> Amery: 2 comments
}
