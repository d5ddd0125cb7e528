package textutil_test

import (
	"fmt"

	"mass/internal/textutil"
)

func ExampleTerms() {
	fmt.Println(textutil.Terms(textutil.Tokenize("The players were running to the stadium")))
	// Output:
	// [player runn stadium]
}

func ExampleTermVector_Cosine() {
	a := textutil.NewTermVector(textutil.Tokenize("stock market and bank interest"))
	b := textutil.NewTermVector(textutil.Tokenize("the bank raised the interest rate"))
	c := textutil.NewTermVector(textutil.Tokenize("watercolor painting on canvas"))
	fmt.Printf("finance vs finance: %.2f\n", a.Cosine(b))
	fmt.Printf("finance vs art:     %.2f\n", a.Cosine(c))
	// Output:
	// finance vs finance: 0.50
	// finance vs art:     0.00
}
