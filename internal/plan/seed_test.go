package plan

import (
	"reflect"
	"testing"
)

// Seed-label inference must be sound: every returned label is carried by
// the first node of every match. The cases cover accumulation across
// consecutive node patterns, conjunction/disjunction/negation in label
// expressions, skippable quantifiers and union intersection.
func TestSeedLabels(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{`MATCH (a:Account)-[t:Transfer]->(b)`, []string{"Account"}},
		{`MATCH (a)`, nil},
		{`MATCH (a:Account&Vip)`, []string{"Account", "Vip"}},
		{`MATCH (a:Account|Phone)`, nil},
		{`MATCH (a:Account|Account)`, []string{"Account"}},
		{`MATCH (a:!Account)`, nil},
		// A conjunction whose left side implies nothing.
		{`MATCH (a:!Account&City)`, []string{"City"}},
		{`MATCH (a:%)`, nil},
		// Consecutive node patterns constrain the same position.
		{`MATCH (a:Account)(b:Vip)-[e]->(c)`, []string{"Account", "Vip"}},
		// After the first edge, later labels no longer apply to the seed.
		{`MATCH (a:Account)-[e]->(b:City)`, []string{"Account"}},
		// A skippable quantifier proves nothing about the first node.
		{`MATCH TRAIL [(a:City)-[e]->(b)]*(z:Account)`, nil},
		{`MATCH [(a:City)-[e]->(b)]{0,3}(z:Account)`, nil},
		{`MATCH [(a:City)-[e]->(b)]?(z:Account)`, nil},
		// A mandatory quantifier starts at its body's first node.
		{`MATCH TRAIL [(a:Account)-[e:Transfer]->(b)]+(z)`, []string{"Account"}},
		// Union branches intersect.
		{`MATCH (a:Account)-[e]->(b) | (c:Account&Vip)-[f]->(d)`, []string{"Account"}},
		{`MATCH (a:Account)-[e]->(b) | (c:City)-[f]->(d)`, nil},
	}
	for _, c := range cases {
		p := mustAnalyze(t, c.src)
		if got := p.Paths[0].SeedLabels; !reflect.DeepEqual(got, c.want) {
			t.Errorf("seedLabels(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

// Multi-pattern statements infer seed labels per path pattern.
func TestSeedLabelsPerPattern(t *testing.T) {
	p := mustAnalyze(t, `MATCH (a:Account)-[t:Transfer]->(b), (c:City)<-[l:isLocatedIn]-(a)`)
	if got := p.Paths[0].SeedLabels; !reflect.DeepEqual(got, []string{"Account"}) {
		t.Errorf("pattern 0 seed labels: %v", got)
	}
	if got := p.Paths[1].SeedLabels; !reflect.DeepEqual(got, []string{"City"}) {
		t.Errorf("pattern 1 seed labels: %v", got)
	}
}
