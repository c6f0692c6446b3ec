package dist

import (
	"math/rand/v2"
	"testing"

	"declnet/internal/datalog"
	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/gen"
	"declnet/internal/query"
)

// TestCollectedQueryDelta drives the collected-fragment wrapper through
// the state growth a flood node sees — its accumulator absorbing its
// own input and facts flooded in from elsewhere, in random chunks — and
// checks every increment Δ against the wrapped query on the collected
// fragment:
//
//	Eval(full) = q(Collected(full))
//	q(Collected(full \ Δ)) ∪ EvalDelta(full, Δ) = q(Collected(full))
//
// for a monotone FO query that has an exact delta of its own and for
// Datalog transitive closure, which has none; the wrapper re-evaluates
// either in full. A Δ of own-input facts only adds nothing to the
// collected fragment, and must derive nothing.
func TestCollectedQueryDelta(t *testing.T) {
	in := fact.Schema{"S": 2}
	hop2 := fo.MustQuery("hop2", []string{"x", "y"},
		fo.ExistsF([]string{"z"}, fo.AndF(fo.AtomF("S", "x", "z"), fo.AtomF("S", "z", "y"))))
	tc := datalog.MustQuery(datalog.MustParse(`
		tc(X, Y) :- S(X, Y).
		tc(X, Z) :- S(X, Y), tc(Y, Z).
	`), "tc")
	if !query.CanDelta(hop2) || query.CanDelta(tc) {
		t.Fatalf("test premise: hop2 CanDelta = %v, tc CanDelta = %v", query.CanDelta(hop2), query.CanDelta(tc))
	}
	for _, q := range []query.Query{hop2, tc} {
		c := collectedQuery(in, q)
		if !query.CanDelta(c) || !query.IsRelBounded(c) {
			t.Fatalf("%v: collected wrapper CanDelta = %v, RelBounded = %v", q.Rels(), query.CanDelta(c), query.IsRelBounded(c))
		}
		for seed := uint64(1); seed <= 12; seed++ {
			checkCollectedGrowth(t, in, q, c, seed)
		}
	}
}

// checkCollectedGrowth runs one seeded growth sequence of a node
// state, own input S and accumulator S@acc, for the wrapper c of q.
func checkCollectedGrowth(t *testing.T, in fact.Schema, q, c query.Query, seed uint64) {
	t.Helper()
	global := gen.Random("S", 8, 18, seed).Facts()
	rng := rand.New(rand.NewPCG(seed, 0xc011ec7))
	rng.Shuffle(len(global), func(i, j int) { global[i], global[j] = global[j], global[i] })
	own := global[:len(global)/3]

	state := fact.NewInstance()
	for _, f := range own {
		state.AddFact(f)
	}
	acc := "S" + accMemSuffix
	grow := func(step string, chunk []fact.Fact, ownOnly bool) {
		delta := state.Dict().NewInstance()
		for _, f := range chunk {
			g := fact.Fact{Rel: acc, Args: f.Args}
			if !state.RelationOr(acc, 2).Contains(g.Args) {
				delta.AddFact(g)
			}
		}
		full := state.Clone()
		full.UnionWith(delta)

		before, err := q.Eval(Collected(state, in, false))
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.Eval(Collected(full, in, false))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Eval(full)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d %s: Eval = %s, q(Collected) = %s", seed, step, got, want)
		}
		d, err := c.(query.DeltaEvaluable).EvalDelta(full, delta)
		if err != nil {
			t.Fatal(err)
		}
		if ownOnly && !d.Empty() {
			t.Fatalf("seed %d %s: own-input Δ %s derived %s", seed, step, delta, d)
		}
		if !d.SubsetOf(want) {
			t.Fatalf("seed %d %s: EvalDelta %s outside q(Collected(full))", seed, step, d)
		}
		before.UnionWith(d)
		if !before.Equal(want) {
			t.Fatalf("seed %d %s: q(Collected(full\\Δ)) ∪ EvalDelta = %s, want %s", seed, step, before, want)
		}
		state = full
	}

	// Part of the own input reaches the accumulator first, alone.
	grow("own", own[:len(own)/2], true)
	// Then random chunks of everything, own input included.
	rest := append([]fact.Fact(nil), global...)
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for len(rest) > 0 {
		n := 1 + rng.IntN(4)
		if n > len(rest) {
			n = len(rest)
		}
		grow("chunk", rest[:n], false)
		rest = rest[n:]
	}
}
