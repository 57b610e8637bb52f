package predfilter_test

import (
	"context"
	"fmt"

	"predfilter"
)

// The basic workflow: create an engine, register expressions, filter
// documents.
func Example() {
	eng := predfilter.New(predfilter.Config{})

	news, _ := eng.Add("/feed/story[@urgent=true]")
	sports, _ := eng.Add("//story[category/sports]")

	doc := []byte(`
		<feed>
		  <story urgent="true">
		    <category><sports/></category>
		  </story>
		</feed>`)

	matches, _ := eng.Match(doc)
	for _, sid := range matches {
		switch sid {
		case news:
			fmt.Println("urgent news matched")
		case sports:
			fmt.Println("sports matched")
		}
	}
	// Output:
	// urgent news matched
	// sports matched
}

// Duplicate and overlapping expressions share storage: a million
// subscribers with similar interests cost little more than their distinct
// interests.
func ExampleEngine_Stats() {
	eng := predfilter.New(predfilter.Config{})
	for i := 0; i < 1000; i++ {
		eng.Add("/catalog/book/title") // 1000 identical subscriptions
	}
	eng.Add("/catalog/book")   // shares the (catalog, book) predicates
	eng.Add("/catalog//price") // shares the catalog predicate structure

	st := eng.Stats()
	fmt.Println("expressions:", st.Expressions)
	fmt.Println("distinct:", st.DistinctExpressions)
	// Output:
	// expressions: 1002
	// distinct: 3
}

// Pre-parsing lets one document be matched against several engines (or
// repeatedly) without re-decomposing it.
func ExampleParseDocument() {
	doc, _ := predfilter.ParseDocument([]byte(`<a><b/><c><d/></c></a>`))
	fmt.Println("elements:", doc.Elements())
	fmt.Println("paths:", doc.Paths())

	eng := predfilter.New(predfilter.Config{})
	sid, _ := eng.Add("/a/c/d")
	matches, _ := eng.MatchParsedContext(context.Background(), doc)
	fmt.Println("matched:", len(matches) == 1 && matches[0] == sid)
	// Output:
	// elements: 4
	// paths: 2
	// matched: true
}
