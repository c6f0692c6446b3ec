package query_test

import (
	"math/rand/v2"
	"testing"

	"declnet/internal/fact"
	"declnet/internal/gen"
	"declnet/internal/query"
)

// TestLinearQueryDeltaExact is the semi-naive contract of the linear
// library queries on seeded random instances:
//
//	Eval(full) = Eval(full \ Δ) ∪ EvalDelta(full, Δ)
//
// for random deltas, including deltas confined to relations the query
// does not read (which must derive nothing).
func TestLinearQueryDeltaExact(t *testing.T) {
	queries := []query.Func{
		query.Copy("R", 2),
		query.UnionOf(2, "R", "S"),
		query.UnionOf(2, "S", "R", "Z"), // Z is never populated
	}
	for _, q := range queries {
		if !query.CanDelta(q) {
			t.Fatalf("%s: CanDelta = false", q.Name)
		}
	}
	for seed := uint64(1); seed <= 25; seed++ {
		full := gen.Merge(
			gen.Random("R", 10, 16, seed),
			gen.Random("S", 10, 16, seed+1000),
			gen.Random("T", 10, 16, seed+2000),
		)
		rng := rand.New(rand.NewPCG(seed, 0xde17a))
		split := func(inDelta func(f fact.Fact) bool) (rest, delta *fact.Instance) {
			rest, delta = full.Dict().NewInstance(), full.Dict().NewInstance()
			for _, f := range full.Facts() {
				if inDelta(f) {
					delta.AddFact(f)
				} else {
					rest.AddFact(f)
				}
			}
			return rest, delta
		}
		randomRest, randomDelta := split(func(fact.Fact) bool { return rng.IntN(3) == 0 })
		unreadRest, unreadDelta := split(func(f fact.Fact) bool { return f.Rel == "T" })
		for _, q := range queries {
			want, err := q.Eval(full)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name        string
				rest, delta *fact.Instance
			}{{"random", randomRest, randomDelta}, {"unread", unreadRest, unreadDelta}} {
				got, err := q.Eval(c.rest)
				if err != nil {
					t.Fatal(err)
				}
				d, err := q.EvalDelta(full, c.delta)
				if err != nil {
					t.Fatal(err)
				}
				if !d.SubsetOf(want) {
					t.Errorf("seed %d %s %s: delta %s derives facts outside Eval(full)", seed, q.Name, c.name, d)
				}
				if c.name == "unread" && !d.Empty() {
					t.Errorf("seed %d %s: a delta on unread relations derived %s", seed, q.Name, d)
				}
				got.UnionWith(d)
				if !got.Equal(want) {
					t.Errorf("seed %d %s %s: Eval(full\\Δ) ∪ EvalDelta = %s, Eval(full) = %s", seed, q.Name, c.name, got, want)
				}
			}
		}
	}
}

// TestNewFuncHasNoDelta: a user-built Func is opaque, so it never
// claims delta evaluation, and calling EvalDelta anyway is an error.
func TestNewFuncHasNoDelta(t *testing.T) {
	q := query.NewFunc("opaque", 1, []string{"R"}, true, func(I *fact.Instance) (*fact.Relation, error) {
		return I.RelationOr("R", 1).Clone(), nil
	})
	if query.CanDelta(q) || q.CanDelta() {
		t.Error("NewFunc reports CanDelta() == true")
	}
	I := fact.FromFacts(fact.NewFact("R", "a"))
	if _, err := q.EvalDelta(I, I); err == nil {
		t.Error("EvalDelta on a NewFunc succeeded")
	}
}
