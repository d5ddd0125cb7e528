package classify_test

import (
	"fmt"
	"log"

	"mass/internal/classify"
)

// ExampleTrainNaiveBayes shows the Post Analyzer flow: train on labeled
// snippets, then read the posterior iv(b,d,Ct) for a new post.
func ExampleTrainNaiveBayes() {
	nb, err := classify.TrainNaiveBayes([]classify.Example{
		{Text: "stock market bank interest inflation", Label: "Economics"},
		{Text: "currency trade deficit recession", Label: "Economics"},
		{Text: "basketball playoff stadium coach", Label: "Sports"},
		{Text: "marathon olympics athlete medal", Label: "Sports"},
	})
	if err != nil {
		log.Fatal(err)
	}
	label, p := classify.Top(classify.Classify(nb, "the bank raised the interest rate again"))
	fmt.Printf("%s (p > 0.5: %v)\n", label, p > 0.5)
	// Output:
	// Economics (p > 0.5: true)
}
