package rank_test

import (
	"fmt"

	"mass/internal/rank"
)

func ExampleTopK() {
	scores := map[string]float64{
		"amery": 0.79, "helen": 0.25, "michael": 0.22, "bob": 0.03,
	}
	for _, e := range rank.TopK(scores, 2) {
		fmt.Printf("%s %.2f\n", e.ID, e.Score)
	}
	// Output:
	// amery 0.79
	// helen 0.25
}

func ExamplePrecisionAtK() {
	ranking := []string{"expert1", "nobody", "expert2"}
	relevant := map[string]bool{"expert1": true, "expert2": true, "expert3": true}
	fmt.Printf("%.2f\n", rank.PrecisionAtK(ranking, relevant, 3))
	// Output:
	// 0.67
}

func ExampleOverlapAtK() {
	domainList := []string{"x", "y", "z"}
	generalList := []string{"p", "q", "x"}
	fmt.Printf("%.2f\n", rank.OverlapAtK(domainList, generalList, 3))
	// Output:
	// 0.33
}
