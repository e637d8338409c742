package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"gpml"
	"gpml/internal/dataset"
	"gpml/internal/gql"
)

// TestExplainServedJoinPlans pins the /explain plan lines of the two
// multi-pattern texts the serving benchmark sends (bench/workloads.go,
// shapes triangle and colike_bindjoin), of its two selector shapes
// (all_shortest, any_shortest), of trail_1_3 and of one short text
// (friends_1hop) on a small SNB graph: engine per pattern, seed and
// target access path (an equality index or a label scan), the index the
// DFS target rings are read from, automaton size, join order, seed
// variables, ends and pair targets with the estimates each step was
// chosen by, and streaming notes. What Explain
// prints is what runs — there is one pipeline — so a change here is a
// change of the served plan.
func TestExplainServedJoinPlans(t *testing.T) {
	catalog := gql.NewCatalog()
	if err := catalog.Register("snb", gpml.Snapshot(dataset.SNB(dataset.SNBConfig{ScaleFactor: 0.01, Seed: 1}))); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: catalog})
	if err != nil {
		t.Fatal(err)
	}
	const dfs = " (automaton unavailable: no selector (output is the full enumeration)) stages=enumerate→reduce→sort[blocking]"
	for _, tc := range []struct {
		shape, query string
		want         []string
	}{
		{"friends_1hop", `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person)`, []string{
			"pattern 0: engine=dfs seed=index(Person.firstName)" + dfs,
		}},
		{"triangle", `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person), (b)-[:knows]-(c:Person), (c)-[:knows]-(a)`, []string{
			"pattern 0: engine=dfs seed=index(Person.firstName)" + dfs,
			"pattern 1: engine=dfs" + dfs,
			"pattern 2: engine=dfs" + dfs,
			"join stats: nodes=410 edges=3068 avg-degree=15",
			"join step 0: pattern 0 scan est-rows=2.07 [streaming]",
			"join step 1: pattern 2 bind-join seed=a end=tail est-distinct=1 est-per-seed=8.51 [streaming]",
			"join step 2: pattern 1 bind-join seed=b end=head target=c est-distinct=2.07 est-per-seed=8.51 [streaming]",
		}},
		{"colike_bindjoin", `MATCH (a:Person WHERE a.firstName=$name)-[:likes]->(m:Post)<-[:likes]-(b:Person WHERE b.country=$country), TRAIL (a)-[:knows]-{1,2}(b)`, []string{
			"pattern 0: engine=dfs seed=index(Person.firstName) tail-rings=index(Person.country)" + dfs,
			"pattern 1: engine=dfs restrictor=TRAIL" + dfs,
			"join stats: nodes=410 edges=3068 avg-degree=15",
			"join step 0: pattern 0 scan est-rows=0.012 [streaming]",
			"join step 1: pattern 1 bind-join seed=a end=head target=b est-distinct=1 est-per-seed=8.51 [streaming]",
		}},
		{"trail_1_3", `MATCH TRAIL (a:Person WHERE a.firstName=$name)-[k:knows]-{1,3}(b:Person WHERE b.country=$country)`, []string{
			"pattern 0: engine=dfs restrictor=TRAIL seed=index(Person.firstName) tail-rings=index(Person.country)" + dfs,
		}},
		// Both selector shapes run on the automaton; the bounded one's
		// {1,4} unrolls into 33 states against the unbounded one's 17.
		{"all_shortest", `MATCH ALL SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-+(b:Person WHERE b.firstName=$dst)`, []string{
			"pattern 0: engine=automaton selector=ALL SHORTEST seed=index(Person.firstName) target=index(Person.firstName) states=17 stages=enumerate→reduce→select ALL SHORTEST[blocking]→sort[blocking]",
		}},
		{"any_shortest", `MATCH ANY SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-{1,4}(b:Person WHERE b.firstName=$dst)`, []string{
			"pattern 0: engine=automaton selector=ANY SHORTEST seed=index(Person.firstName) target=index(Person.firstName) states=33 stages=enumerate→reduce→select ANY SHORTEST[blocking]→sort[blocking]",
		}},
	} {
		body, err := json.Marshal(map[string]string{"query": tc.query, "graph": "snb"})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/explain", strings.NewReader(string(body))))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.shape, w.Code, w.Body)
		}
		var resp explainResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", tc.shape, err)
		}
		if !reflect.DeepEqual(resp.Plan, tc.want) {
			t.Errorf("%s: served plan changed\ngot:\n  %s\nwant:\n  %s", tc.shape,
				strings.Join(resp.Plan, "\n  "), strings.Join(tc.want, "\n  "))
		}
	}
}
