package dist

import (
	"fmt"
	"sort"

	"declnet/internal/datalog"
	"declnet/internal/fact"
	"declnet/internal/query"
	"declnet/internal/transducer"
)

// floodSubstrate wires the untagged replication machinery of
// Lemma 5(2) into a builder: for every input relation R/k it declares
// the message relation R@flood/k and the accumulator memory R@acc/k,
// sends everything known on every transition, and accumulates both
// received and own facts. All queries are monotone and read neither Id
// nor All, keeping the construction oblivious.
func floodSubstrate(b *transducer.Builder, in fact.Schema) {
	for _, rel := range in.Names() {
		k := in[rel]
		msg, acc := rel+floodMsgSuffix, rel+accMemSuffix
		b.Msg(msg, k).Mem(acc, k).
			Snd(msg, query.UnionOf(k, rel, acc)).
			Ins(acc, query.UnionOf(k, rel, acc, msg))
	}
}

// collectedQuery wraps q so that it evaluates on the node's collected
// fragment of the global input — own input relations united with the
// untagged flood accumulators, under the original relation names. The
// wrapper inherits q's monotonicity annotation. A monotone wrapper is
// delta-evaluable, so the incremental firing advances it across state
// growth instead of dropping it: most state deltas of the flood
// substrate add nothing to the collected fragment (the accumulator
// absorbing the node's own input, or a fact already collected), and
// then nothing can be new; otherwise q is re-evaluated in full, a valid
// delta because q is monotone.
func collectedQuery(in fact.Schema, q query.Query) query.Query {
	reads := make([]string, 0, 2*len(in))
	for _, rel := range in.Names() {
		reads = append(reads, rel, rel+accMemSuffix)
	}
	eval := func(I *fact.Instance) (*fact.Relation, error) {
		return q.Eval(Collected(I, in, false))
	}
	var delta func(full, delta *fact.Instance) (*fact.Relation, error)
	if q.SyntacticallyMonotone() {
		delta = func(full, delta *fact.Instance) (*fact.Relation, error) {
			if collectsNothing(in, full, delta) {
				return full.Dict().NewRelation(q.Arity()), nil
			}
			return eval(full)
		}
	}
	return query.NewDeltaFunc("collected:"+fmt.Sprint(q.Rels()), q.Arity(), reads,
		q.SyntacticallyMonotone(), eval, delta)
}

// collectsNothing reports whether delta adds no fact to the collected
// fragment of full: full holds every fact of delta under R or R@acc
// also under a name delta did not add it to.
func collectsNothing(in fact.Schema, full, delta *fact.Instance) bool {
	for rel, k := range in {
		own, ownD := full.RelationOr(rel, k), delta.RelationOr(rel, k)
		acc, accD := full.RelationOr(rel+accMemSuffix, k), delta.RelationOr(rel+accMemSuffix, k)
		old := func(t fact.Tuple) bool {
			return (own.Contains(t) && !ownD.Contains(t)) || (acc.Contains(t) && !accD.Contains(t))
		}
		for _, d := range [2]*fact.Relation{ownD, accD} {
			fresh := false
			d.Each(func(t fact.Tuple) bool {
				fresh = !old(t)
				return !fresh
			})
			if fresh {
				return false
			}
		}
	}
	return true
}

// Flood returns the Lemma 5(2) transducer: oblivious replication of
// the input instance over the given schema. Every node eventually
// holds the entire instance (retrievable with Collected), but no node
// can ever KNOW replication has finished — the price of obliviousness,
// paid back in the far lower message count compared to Multicast.
// An optional output query of the given arity is evaluated
// continuously on the collected fragment; it must be syntactically
// monotone for the network to stay consistent (nil means no output).
func Flood(in fact.Schema, out query.Query, outArity int) (*transducer.Transducer, error) {
	if out != nil && !out.SyntacticallyMonotone() {
		return nil, fmt.Errorf("dist: Flood streams continuously and needs a syntactically monotone output query; use CollectThenCompute for %v", out.Rels())
	}
	if out != nil {
		if err := readsWithin(out, in); err != nil {
			return nil, err
		}
		outArity = out.Arity()
	}
	b := transducer.NewBuilder("flood", in)
	floodSubstrate(b, in)
	if out != nil {
		b.Out(outArity, collectedQuery(in, out))
	} else {
		b.Out(outArity, nil)
	}
	return b.Build()
}

// MonotoneStreaming returns the Theorem 6(2)/(4) transducer: an
// oblivious, inflationary streaming evaluation of a monotone query q
// over the input schema. The input is flooded; every node continuously
// outputs q of its collected fragment. Monotonicity makes every
// intermediate output a subset of q(I), so the accumulated run output
// is exactly q(I) on every network, partition and fair run.
func MonotoneStreaming(in fact.Schema, q query.Query) (*transducer.Transducer, error) {
	if q == nil {
		return nil, fmt.Errorf("dist: MonotoneStreaming needs a query")
	}
	if !q.SyntacticallyMonotone() {
		return nil, fmt.Errorf("dist: MonotoneStreaming requires a syntactically monotone query (got one reading %v); use CollectThenCompute instead", q.Rels())
	}
	if err := readsWithin(q, in); err != nil {
		return nil, err
	}
	b := transducer.NewBuilder("monotoneStreaming", in)
	floodSubstrate(b, in)
	b.Out(q.Arity(), collectedQuery(in, q))
	return b.Build()
}

// DatalogStreaming returns the Theorem 6(5) transducer: a positive
// Datalog program used directly as the transducer language. The EDB is
// flooded and the program's answer predicate is streamed from every
// node's collected fragment.
func DatalogStreaming(p *datalog.Program, ans string) (*transducer.Transducer, error) {
	if !p.IsPositive() {
		return nil, fmt.Errorf("dist: DatalogStreaming requires a positive program (Theorem 6(5))")
	}
	q, err := datalog.NewQuery(p, ans)
	if err != nil {
		return nil, err
	}
	arities := p.Arities()
	in := fact.Schema{}
	for _, e := range p.EDB() {
		in[e] = arities[e]
	}
	tr, err := MonotoneStreaming(in, q)
	if err != nil {
		return nil, err
	}
	tr.Name = "datalogStreaming:" + ans
	return tr, nil
}

// readsWithin checks that the query reads only relations of the input
// schema.
func readsWithin(q query.Query, in fact.Schema) error {
	var missing []string
	for _, r := range q.Rels() {
		if !in.Has(r) {
			missing = append(missing, r)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("dist: query reads %v outside the input schema %s", missing, in)
	}
	return nil
}
