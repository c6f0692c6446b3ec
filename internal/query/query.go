// Package query defines the abstract notion of a database query used
// throughout the reproduction. The paper's transducers are collections
// of queries over a combined schema; the model is parameterized by the
// local query language L. Every concrete language in this repository
// (first-order logic, Datalog fragments, while-programs, and arbitrary
// Go functions standing in for a computationally complete language)
// implements the Query interface defined here.
package query

import (
	"fmt"
	"sort"

	"declnet/internal/fact"
)

// Query is a k-ary database query over some schema. Eval must be
// deterministic and generic (commute with permutations of dom) for the
// paper's definitions to apply; implementations in this repository are.
type Query interface {
	// Arity is the arity k of the query's output relation.
	Arity() int

	// Rels returns the relation names the query may read, sorted.
	// It is the basis of the syntactic obliviousness check (a
	// transducer is oblivious if no query mentions Id or All).
	Rels() []string

	// Eval computes the query on an instance. The result is a k-ary
	// relation over adom(I) (safety is the implementation's duty).
	Eval(I *fact.Instance) (*fact.Relation, error)

	// SyntacticallyMonotone reports whether the query is monotone by
	// construction (e.g. negation-free). False means "unknown", not
	// "non-monotone".
	SyntacticallyMonotone() bool
}

// DeltaEvaluable is implemented by queries that support exact
// semi-naive delta evaluation, the contract behind incremental
// transducer firing (package transducer) and delta-driven fixpoints.
type DeltaEvaluable interface {
	Query

	// CanDelta reports whether EvalDelta is exact for this query.
	CanDelta() bool

	// EvalDelta returns derivations that may involve at least one fact
	// of delta, evaluated against full (which already contains delta).
	// When CanDelta holds, the result satisfies
	//
	//	Eval(full) = Eval(full \ delta) ∪ EvalDelta(full, delta).
	EvalDelta(full, delta *fact.Instance) (*fact.Relation, error)
}

// CanDelta reports whether q supports exact delta evaluation.
func CanDelta(q Query) bool {
	d, ok := q.(DeltaEvaluable)
	return ok && d.CanDelta()
}

// PlanExplainer is implemented by queries that evaluate through the
// compiled query-plan layer (internal/plan) and can render their
// physical plans: chosen atom order, probe columns, filter and guard
// placement, delta-pinned variants. run.Explain aggregates it per
// transducer so plan regressions are diffable.
type PlanExplainer interface {
	// ExplainPlan renders the query's compiled plans, one op per line.
	ExplainPlan() string
}

// ExplainPlan returns q's plan rendering, or a one-line placeholder
// for queries that do not evaluate through the plan layer (opaque Go
// functions, constant queries).
func ExplainPlan(q Query) string {
	if e, ok := q.(PlanExplainer); ok {
		return e.ExplainPlan()
	}
	return fmt.Sprintf("opaque query (no compiled plan): arity %d, reads %v\n", q.Arity(), q.Rels())
}

// RelBounded is implemented by queries whose result depends only on
// the contents of the relations named by Rels() — not on the ambient
// active domain of the evaluated instance. Such results stay valid as
// long as the read relations are unchanged, no matter how the rest of
// the instance grows; the incremental transducer firing uses this to
// keep cached query results across unrelated state changes.
type RelBounded interface {
	RelBounded() bool
}

// IsRelBounded reports whether q declares rel-bounded evaluation.
func IsRelBounded(q Query) bool {
	b, ok := q.(RelBounded)
	return ok && b.RelBounded()
}

// Empty is the query returning the empty k-ary relation on every
// input. The paper uses it for deletion queries of inflationary
// transducers and as the default for unspecified transducer queries.
type Empty struct{ K int }

// Arity implements Query.
func (e Empty) Arity() int { return e.K }

// Rels implements Query.
func (e Empty) Rels() []string { return nil }

// Eval implements Query.
func (e Empty) Eval(I *fact.Instance) (*fact.Relation, error) {
	return I.Dict().NewRelation(e.K), nil
}

// SyntacticallyMonotone implements Query; the constant-empty query is
// trivially monotone.
func (e Empty) SyntacticallyMonotone() bool { return true }

// RelBounded implements RelBounded; a constant query reads nothing.
func (e Empty) RelBounded() bool { return true }

// Func wraps an arbitrary Go function as a query. This is the
// "computationally complete query language" of Theorem 6(1): any
// partial computable query is expressible. Declared relation reads and
// monotonicity are trusted annotations supplied by the constructor.
type Func struct {
	K        int
	Reads    []string
	Monotone bool
	Name     string
	F        func(I *fact.Instance) (*fact.Relation, error)

	// AdomSensitive marks functions whose result depends on the active
	// domain of the whole instance, beyond the relations in Reads; it
	// disables result caching across unrelated state growth.
	AdomSensitive bool

	// delta is the semi-naive delta function set by NewDeltaFunc; nil
	// for every NewFunc, whose body is opaque.
	delta func(full, delta *fact.Instance) (*fact.Relation, error)
}

// NewFunc builds a Func query. reads lists the relations f consults;
// it is sorted and deduplicated. The function must depend only on the
// contents of the listed relations (every construction in this
// repository evaluates on a restriction to its reads); a Func whose
// result additionally depends on the ambient active domain must set
// AdomSensitive.
func NewFunc(name string, arity int, reads []string, monotone bool, f func(*fact.Instance) (*fact.Relation, error)) Func {
	rs := dedupSorted(reads)
	return Func{K: arity, Reads: rs, Monotone: monotone, Name: name, F: f}
}

// NewDeltaFunc is NewFunc with a delta function that makes the query
// DeltaEvaluable: delta(full, Δ) must satisfy the EvalDelta contract
// for f. A nil delta builds a plain NewFunc.
func NewDeltaFunc(name string, arity int, reads []string, monotone bool,
	f func(*fact.Instance) (*fact.Relation, error),
	delta func(full, delta *fact.Instance) (*fact.Relation, error)) Func {
	q := NewFunc(name, arity, reads, monotone, f)
	q.delta = delta
	return q
}

// Arity implements Query.
func (q Func) Arity() int { return q.K }

// Rels implements Query.
func (q Func) Rels() []string { return q.Reads }

// Eval implements Query.
func (q Func) Eval(I *fact.Instance) (*fact.Relation, error) {
	r, err := q.F(I)
	if err != nil {
		return nil, fmt.Errorf("query %s: %w", q.Name, err)
	}
	if r.Arity() != q.K {
		return nil, fmt.Errorf("query %s: produced arity %d, declared %d", q.Name, r.Arity(), q.K)
	}
	return r, nil
}

// SyntacticallyMonotone implements Query.
func (q Func) SyntacticallyMonotone() bool { return q.Monotone }

// RelBounded implements RelBounded per the NewFunc contract.
func (q Func) RelBounded() bool { return !q.AdomSensitive }

// CanDelta implements DeltaEvaluable: only a NewDeltaFunc carries a
// delta function.
func (q Func) CanDelta() bool { return q.delta != nil }

// EvalDelta implements DeltaEvaluable.
func (q Func) EvalDelta(full, delta *fact.Instance) (*fact.Relation, error) {
	if q.delta == nil {
		return nil, fmt.Errorf("query %s: no delta evaluation", q.Name)
	}
	return q.delta(full, delta)
}

// Copy is the query that returns relation rel verbatim (the identity
// query on one relation); it is monotone.
func Copy(rel string, arity int) Func {
	q := UnionOf(arity, rel)
	q.Name = "copy:" + rel
	return q
}

// UnionOf returns the query computing the union of same-arity
// relations; it is monotone. It is linear — every output fact comes
// from exactly one input fact — so its delta is exact: the union of
// the delta's relations.
func UnionOf(arity int, rels ...string) Func {
	names := append([]string(nil), rels...)
	union := func(I *fact.Instance) (*fact.Relation, error) {
		out := I.Dict().NewRelation(arity)
		for _, r := range names {
			out.UnionWith(I.RelationOr(r, arity))
		}
		return out, nil
	}
	return NewDeltaFunc(fmt.Sprintf("union:%v", names), arity, names, true, union,
		func(_, delta *fact.Instance) (*fact.Relation, error) { return union(delta) })
}

func dedupSorted(xs []string) []string {
	if len(xs) == 0 {
		return nil
	}
	cp := append([]string(nil), xs...)
	sort.Strings(cp)
	out := cp[:1]
	for _, x := range cp[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// MergeRels unions the Rels of several queries, sorted, deduplicated.
func MergeRels(qs ...Query) []string {
	var all []string
	for _, q := range qs {
		if q != nil {
			all = append(all, q.Rels()...)
		}
	}
	return dedupSorted(all)
}

// Mentions reports whether the query reads any of the given relations.
func Mentions(q Query, rels ...string) bool {
	if q == nil {
		return false
	}
	reads := q.Rels()
	for _, r := range rels {
		i := sort.SearchStrings(reads, r)
		if i < len(reads) && reads[i] == r {
			return true
		}
	}
	return false
}
