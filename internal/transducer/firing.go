package transducer

import (
	"fmt"

	"declnet/internal/fact"
	"declnet/internal/query"
)

// Firing is an incremental evaluator for one transducer placed at one
// node: it caches the result of every transducer query on the node's
// current state and replays transitions against (state, Δ) instead of
// re-evaluating every query on the full state.
//
// The produced effects are identical to Transducer.Step —
// incrementality is an evaluation strategy, not a semantics change.
// Five mechanisms carry it:
//
//   - Message deltas. Received facts live in message relations, which
//     are disjoint from the state schema; a query that does not read
//     them is answered from the cache whenever it is rel-bounded OR
//     the received values already occur in the state's active domain
//     (a query result is a function of the relations it reads and
//     adom(I), so nothing it depends on has changed). Delta-evaluable
//     queries (query.DeltaEvaluable: positive FO branches, the linear
//     query.UnionOf and query.Copy, and the flood substrate's
//     collected-fragment queries in package dist) are answered as
//     cache ∪ EvalDelta(state ∪ Δrcv, Δrcv).
//   - State deltas. When a transition only adds memory facts (the
//     paper's inflationary case), cached results advance by semi-naive
//     delta firing over the added facts, or survive untouched when
//     the additions miss the query's reads and active domain. A delta
//     the cached result already holds leaves it as is, pointer
//     included, so the memos keyed on result pointers keep hitting; a
//     delta that holds the whole cached result replaces it.
//   - Lazy probes. The quiescence check never needs the successor
//     instance, only whether it differs; ProbeParts decides that with
//     subset checks, memoized on result pointers.
//   - Transition memo. A transition is a deterministic function of
//     (state, rcv), and a fair run redelivers known facts to saturated
//     nodes over and over. Per state, the firing memoizes each
//     transition by the receive instance's pointer (nil for a
//     heartbeat): a quiet transition — one that changes no memory
//     relation — keeps only its send set and output relation, and
//     returns the same state pointer, so replaying it is one map
//     lookup with no evaluation and no allocation. A transition that
//     changes the state keeps only that verdict, which a repeated
//     probe reads back; the Step that executes it evaluates it again.
//     Any state change clears the memo.
//   - Fallback. Queries that fit none of the above are re-evaluated
//     in full — the exact original semantics.
//
// Contract: states and receive instances passed to Step and
// ProbeParts are never mutated afterwards (the memo keys on the
// receive instance's pointer), and relations and instances the firing
// returns are shared storage that callers must not mutate.
type Firing struct {
	T *Transducer

	// state is the instance the cache entries are valid for, compared
	// by pointer identity: network feeds each Effect.State back as the
	// next call's state, so a mismatch means the caller switched
	// configurations and the cache must be rebuilt.
	state *fact.Instance

	queries []firingQuery
	cache   []*fact.Relation
	memRels []memEntry
	sndIdx  []int // query slots of the send queries, in message relation order
	outIdx  int

	// quietMem memoizes, per memory relation (indexed like memRels),
	// the (ins, del, old) relation-pointer triple that last verified
	// "no state change". Relations are immutable once published, so
	// pointer equality implies content equality and the memo never
	// goes stale; it is reset whenever the cache moves to a new state.
	quietMem [][3]*fact.Relation

	// memo is the transition memo on state, keyed by receive instance
	// (nil for a heartbeat); reset whenever the cache moves to a new
	// state.
	memo map[*fact.Instance]memoEntry

	// lastSnd is the send set of the latest evaluated transition,
	// reused while every send query returns the same relation object,
	// so that memo entries share one send instance.
	lastSnd *sndSet

	// empty holds one shared, read-only empty relation per arity over
	// emptyDict, the state's dictionary: the result of every absent
	// query and the old value of every memory relation a state does not
	// hold.
	empty     []*fact.Relation
	emptyDict *fact.Dict
}

// memoEntry is one memoized transition: the send set and output
// relation of a quiet transition, or the zero entry for one that
// changes the state.
type memoEntry struct {
	snd *sndSet
	out *fact.Relation
}

// sndSet is a send instance together with its per-relation parts, the
// form ProbeParts hands out.
type sndSet struct {
	inst  *fact.Instance
	parts []SndResult
}

// firingQuery is one transducer query with its precomputed
// incremental capabilities.
type firingQuery struct {
	key   string // "snd:R", "ins:R", "del:R", "out"
	kind  byte   // 's', 'i', 'd', 'o'
	rel   string
	q     query.Query
	reads map[string]bool
	// delta: exact semi-naive delta evaluation available.
	delta bool
	// bounded: result depends only on the relations in reads.
	bounded bool
}

// memEntry locates the insert and delete query slots of one memory
// relation (-1 when absent).
type memEntry struct {
	rel      string
	arity    int
	ins, del int
}

// NewFiring prepares an incremental evaluator for t. Missing queries
// and the constant empty query get no slot: their result is the
// shared empty relation.
func NewFiring(t *Transducer) *Firing {
	f := &Firing{T: t, outIdx: -1, memo: map[*fact.Instance]memoEntry{}}
	add := func(kind byte, key, rel string, q query.Query) int {
		if _, empty := q.(query.Empty); q == nil || empty {
			return -1
		}
		reads := map[string]bool{}
		for _, r := range q.Rels() {
			reads[r] = true
		}
		f.queries = append(f.queries, firingQuery{
			key: key, kind: kind, rel: rel, q: q, reads: reads,
			delta:   query.CanDelta(q),
			bounded: query.IsRelBounded(q),
		})
		return len(f.queries) - 1
	}
	for _, rel := range sortedRels(t.Schema.Msg) {
		if i := add('s', "snd:"+rel, rel, t.Snd[rel]); i >= 0 {
			f.sndIdx = append(f.sndIdx, i)
		}
	}
	for _, rel := range sortedRels(t.Schema.Mem) {
		e := memEntry{rel: rel, arity: t.Schema.Mem[rel]}
		e.ins = add('i', "ins:"+rel, rel, t.Ins[rel])
		e.del = add('d', "del:"+rel, rel, t.Del[rel])
		f.memRels = append(f.memRels, e)
	}
	f.outIdx = add('o', "out", "", t.Out)
	f.cache = make([]*fact.Relation, len(f.queries))
	f.quietMem = make([][3]*fact.Relation, len(f.memRels))
	return f
}

// resync drops the cache when the caller's state is not the one the
// cache was built for.
func (f *Firing) resync(state *fact.Instance) {
	if f.state != state {
		f.state = state
		clear(f.cache)
		f.forget()
		if d := state.Dict(); d != f.emptyDict {
			f.empty, f.emptyDict, f.lastSnd = nil, d, nil
		}
	}
}

// forget resets the memos that are valid for one state only.
func (f *Firing) forget() {
	clear(f.quietMem)
	clear(f.memo)
}

// emptyRel returns the shared empty relation of the given arity.
func (f *Firing) emptyRel(arity int) *fact.Relation {
	for len(f.empty) <= arity {
		f.empty = append(f.empty, nil)
	}
	if f.empty[arity] == nil {
		f.empty[arity] = f.emptyDict.NewRelation(arity)
	}
	return f.empty[arity]
}

// oldRel returns the state's relation rel, or the shared empty
// relation when the state does not hold it.
func (f *Firing) oldRel(state *fact.Instance, rel string, arity int) *fact.Relation {
	if r := state.Relation(rel); r != nil {
		return r
	}
	return f.emptyRel(arity)
}

// cachedOn returns (building if necessary) the cached result of query
// i on the current state.
func (f *Firing) cachedOn(state *fact.Instance, i int) (*fact.Relation, error) {
	if f.cache[i] == nil {
		r, err := f.queries[i].q.Eval(state)
		if err != nil {
			return nil, err
		}
		f.cache[i] = r
	}
	return f.cache[i], nil
}

// evalCtx carries the per-transition evaluation context: I' = state ∪
// rcv (built lazily — cache hits never need it) and the lazily
// decided "received values within adom(state)" verdict shared by all
// queries of the transition.
type evalCtx struct {
	state, rcv, iPrime *fact.Instance
	rcvRels            map[string]bool
	within             int8 // 0 unknown, 1 yes, -1 no
}

func newEvalCtx(state, rcv *fact.Instance) *evalCtx {
	c := &evalCtx{state: state, rcv: rcv}
	if rcv != nil {
		for _, n := range rcv.RelNames() {
			if r := rcv.Relation(n); r != nil && !r.Empty() {
				if c.rcvRels == nil {
					c.rcvRels = map[string]bool{}
				}
				c.rcvRels[n] = true
			}
		}
	}
	return c
}

// prime materializes I' = state ∪ rcv on first use.
func (c *evalCtx) prime() *fact.Instance {
	if c.iPrime == nil {
		iPrime := c.state.ShallowClone()
		for n := range c.rcvRels {
			iPrime.SetRelationOwned(n, c.rcv.Relation(n))
		}
		c.iPrime = iPrime
	}
	return c.iPrime
}

// withinAdom reports whether every received value already occurs in
// the state's active domain — in that case adom(I') = adom(state) and
// queries that read no message relation are unaffected by the
// delivery.
func (c *evalCtx) withinAdom() bool {
	if c.within == 0 {
		c.within = 1
		for n := range c.rcvRels {
			c.rcv.Relation(n).Each(func(t fact.Tuple) bool {
				for _, v := range t {
					if !c.state.AdomContains(v) {
						c.within = -1
						return false
					}
				}
				return true
			})
			if c.within < 0 {
				break
			}
		}
	}
	return c.within > 0
}

// evalOne computes query i on state ∪ rcv. The returned relation may
// be shared cache storage; callers must not mutate it. Results are
// pointer-stable: the same relation object comes back as long as
// nothing the query depends on changes, which the sim exploits to
// memoize downstream bookkeeping.
func (f *Firing) evalOne(c *evalCtx, i int) (*fact.Relation, error) {
	fq := &f.queries[i]
	if len(c.rcvRels) == 0 {
		// No received facts: state ∪ rcv = state exactly.
		return f.cachedOn(c.state, i)
	}
	if !intersects(fq.reads, c.rcvRels) && (fq.bounded || c.withinAdom()) {
		// The query cannot see the received facts: its relations are
		// untouched and (rel-bounded, or adom-unchanged) nothing else
		// it may depend on moved.
		return f.cachedOn(c.state, i)
	}
	if fq.delta {
		base, err := f.cachedOn(c.state, i)
		if err != nil {
			return nil, err
		}
		d, err := fq.q.(query.DeltaEvaluable).EvalDelta(c.prime(), c.rcv)
		if err != nil {
			return nil, err
		}
		return grow(base, d), nil
	}
	return fq.q.Eval(c.prime())
}

// grow returns base ∪ d without mutating either: base itself when d
// adds nothing (e.g. a re-delivered known fact), keeping the
// pointer-stable cached result and the memos keyed on it; d itself when
// it already holds base (a monotone query re-evaluated in full);
// otherwise a grown clone, as base may be aliased by a previously
// returned Effect.
func grow(base, d *fact.Relation) *fact.Relation {
	switch {
	case d.SubsetOf(base):
		return base
	case d.Len() > base.Len() && base.SubsetOf(d):
		return d
	}
	out := base.Clone()
	out.UnionWith(d)
	return out
}

// evalAll evaluates every transducer query on (state, rcv).
func (f *Firing) evalAll(state, rcv *fact.Instance) ([]*fact.Relation, error) {
	c := newEvalCtx(state, rcv)
	results := make([]*fact.Relation, len(f.queries))
	for i := range f.queries {
		r, err := f.evalOne(c, i)
		if err != nil {
			return nil, fmt.Errorf("transducer %s: %s: %w", f.T.Name, f.queries[i].key, err)
		}
		results[i] = r
	}
	return results, nil
}

// resultOr returns query slot idx's result, or the shared empty
// relation for an absent query.
func (f *Firing) resultOr(results []*fact.Relation, idx, arity int) *fact.Relation {
	if idx < 0 {
		return f.emptyRel(arity)
	}
	return results[idx]
}

// sndFor returns the send set of a transition's results: the previous
// one when every send query returned the same relation object, a new
// one otherwise.
func (f *Firing) sndFor(results []*fact.Relation) *sndSet {
	if s := f.lastSnd; s != nil {
		same := true
		for j, i := range f.sndIdx {
			if s.parts[j].R != results[i] {
				same = false
				break
			}
		}
		if same {
			return s
		}
	}
	s := &sndSet{inst: f.emptyDict.NewInstance(), parts: make([]SndResult, len(f.sndIdx))}
	for j, i := range f.sndIdx {
		rel := f.queries[i].rel
		s.inst.SetRelationOwned(rel, results[i])
		s.parts[j] = SndResult{Rel: rel, R: results[i]}
	}
	f.lastSnd = s
	return s
}

// quiet reports whether the transition with the given results leaves
// every memory relation of state unchanged. Verdicts are memoized per
// memory relation on the (ins, del, old) pointers, so repeated checks
// against pointer-stable results cost a handful of compares.
func (f *Firing) quiet(state *fact.Instance, results []*fact.Relation) bool {
	for j, e := range f.memRels {
		ins := f.resultOr(results, e.ins, e.arity)
		del := f.resultOr(results, e.del, e.arity)
		// Relation (not RelationOr): nil is a stable sentinel for an
		// absent relation, so the pointer memo keeps working for
		// memory relations the node never materialized.
		key := [3]*fact.Relation{ins, del, state.Relation(e.rel)}
		if f.quietMem[j] == key {
			continue
		}
		if !memUnchanged(ins, del, key[2]) {
			return false
		}
		f.quietMem[j] = key
	}
	return true
}

// evaluate evaluates the transition from the current state on rcv and
// memoizes its verdict: the send set and output of a quiet transition,
// the zero entry for one that changes the state.
func (f *Firing) evaluate(state, rcv *fact.Instance) (memoEntry, []*fact.Relation, error) {
	results, err := f.evalAll(state, rcv)
	if err != nil {
		return memoEntry{}, nil, err
	}
	var e memoEntry
	if f.quiet(state, results) {
		// Keep only what a replay needs, not the per-query results.
		e = memoEntry{snd: f.sndFor(results), out: f.resultOr(results, f.outIdx, f.T.Schema.OutArity)}
	}
	f.memo[rcv] = e
	return e, results, nil
}

// effect assembles the effect of a state-changing transition from its
// per-query results. It performs no cache maintenance.
func (f *Firing) effect(state *fact.Instance, results []*fact.Relation) Effect {
	next := state.ShallowClone()
	for _, e := range f.memRels {
		ins := f.resultOr(results, e.ins, e.arity)
		del := f.resultOr(results, e.del, e.arity)
		old := f.oldRel(state, e.rel, e.arity)
		var updated *fact.Relation
		if del.Empty() {
			// Inflationary fast path: J(R) = Qins ∪ I(R); reuse the old
			// relation object when the insert adds nothing, so that the
			// state diff and the sim's memos can compare by pointer.
			if ins.SubsetOf(old) {
				updated = old
			} else {
				updated = old.Clone()
				updated.UnionWith(ins)
			}
		} else {
			updated = ins.Minus(del)                             // Qins \ Qdel
			updated.UnionWith(ins.Intersect(del).Intersect(old)) // conflicts keep old tuples
			updated.UnionWith(old.Minus(unionRel(ins, del)))     // untouched tuples persist
			if updated.Equal(old) {
				updated = old
			}
		}
		if updated != old {
			next.SetRelationOwned(e.rel, updated)
		}
		// An unchanged relation is already in next via ShallowClone;
		// skipping the reinstall keeps the instance's active-domain
		// memo (SetRelationOwned must conservatively drop it).
	}
	return Effect{
		State: next,
		Snd:   f.sndFor(results).inst,
		Out:   f.resultOr(results, f.outIdx, f.T.Schema.OutArity),
	}
}

// SndResult is one send-query result: the message relation name and
// the tuples the probed transition would send on it.
type SndResult struct {
	Rel string
	R   *fact.Relation
}

// ProbeParts is the lazily evaluated transition probe behind the
// quiescence check: it reports whether the transition from
// (state, rcv) would change the state, and exposes the send and
// output results, WITHOUT building the successor instance or
// advancing the cache. The verdict goes into the transition memo, so
// a repeated probe costs one map lookup, as does the Step that
// executes a probed quiet transition. The returned relations and
// slice are shared storage and must not be mutated.
func (f *Firing) ProbeParts(state, rcv *fact.Instance) (stateChanged bool, snd []SndResult, out *fact.Relation, err error) {
	f.resync(state)
	e, known := f.memo[rcv]
	if !known {
		if e, _, err = f.evaluate(state, rcv); err != nil {
			return false, nil, nil, err
		}
	}
	if e.snd == nil {
		return true, nil, nil, nil
	}
	return false, e.snd.parts, e.out, nil
}

// memUnchanged reports whether the conflict-resolution update
//
//	J(R) = (Qins \ Qdel) ∪ (Qins ∩ Qdel ∩ I(R)) ∪ (I(R) \ (Qins ∪ Qdel))
//
// leaves I(R) unchanged, without materializing J(R): that holds iff
// Qins \ Qdel ⊆ I(R) (nothing appears) and I(R) ∩ (Qdel \ Qins) = ∅
// (nothing disappears). Cost is O(|Qins| + |Qdel|), independent of
// the state size. A nil old stands for the absent (empty) relation.
func memUnchanged(ins, del, old *fact.Relation) bool {
	unchanged := true
	ins.Each(func(t fact.Tuple) bool {
		if del.Contains(t) {
			return true // conflict: tuple keeps its old status
		}
		if old == nil || !old.Contains(t) {
			unchanged = false
		}
		return unchanged
	})
	if !unchanged || old == nil {
		return unchanged
	}
	del.Each(func(t fact.Tuple) bool {
		if ins.Contains(t) {
			return true // conflict: tuple keeps its old status
		}
		if old.Contains(t) {
			unchanged = false
		}
		return unchanged
	})
	return unchanged
}

// Step executes one transition from (state, rcv). A quiet transition
// returns state itself as the successor and leaves the cache as it
// is. A state-changing one advances the cache onto the new state:
// per-query results are kept verbatim when the transition cannot have
// changed them, advanced by semi-naive delta firing when the state
// only grew, and dropped otherwise. The second return reports whether
// the state changed. Relations in the returned Effect may be shared
// cache storage; callers must not mutate them.
func (f *Firing) Step(state, rcv *fact.Instance) (Effect, bool, error) {
	f.resync(state)
	me, known := f.memo[rcv]
	var results []*fact.Relation
	if !known || me.snd == nil {
		var err error
		if me, results, err = f.evaluate(state, rcv); err != nil {
			return Effect{}, false, err
		}
	}
	if me.snd != nil {
		return Effect{State: state, Snd: me.snd.inst, Out: me.out}, false, nil
	}
	eff := f.effect(state, results)

	// Diff the memory update to learn how the state changed (quiet
	// verdicts are exact, so some relation did); effect reuses old
	// relation objects for untouched memory, making those a pointer
	// compare.
	var changed map[string]bool
	var added *fact.Instance
	removedAny := false
	for _, e := range f.memRels {
		old := f.oldRel(state, e.rel, e.arity)
		now := f.oldRel(eff.State, e.rel, e.arity)
		if old == now {
			continue
		}
		if old.Len() == now.Len() && now.SubsetOf(old) {
			continue
		}
		if changed == nil {
			changed = map[string]bool{}
			added = state.Dict().NewInstance()
		}
		changed[e.rel] = true
		add := now.Minus(old)
		if !add.Empty() {
			added.SetRelationOwned(e.rel, add)
		}
		if !old.SubsetOf(now) {
			removedAny = true
		}
	}

	// newVals collects added values outside the state's active domain.
	// addedWithin (no such values) lets cached results of queries that
	// read none of the changed relations stay exact even for
	// adom-sensitive queries; either way, an additive transition can
	// seed the successor's active-domain memo instead of rescanning.
	var newVals []fact.Value
	if !removedAny {
		for _, n := range added.RelNames() {
			added.Relation(n).Each(func(t fact.Tuple) bool {
				for _, v := range t {
					if !state.AdomContains(v) {
						newVals = append(newVals, v)
					}
				}
				return true
			})
		}
		eff.State.AdoptActiveDomain(state, newVals)
	}
	addedWithin := !removedAny && len(newVals) == 0

	for i := range f.queries {
		fq := &f.queries[i]
		touched := intersects(fq.reads, changed)
		switch {
		case f.cache[i] == nil:
			// nothing cached; stays lazily computed
		case !touched && (fq.bounded || addedWithin):
			// reads untouched relations only, and nothing else the
			// query may depend on moved: still exact
		case !removedAny && fq.delta:
			d, err := fq.q.(query.DeltaEvaluable).EvalDelta(eff.State, added)
			if err != nil {
				return Effect{}, false, fmt.Errorf("transducer %s: advance %s: %w", f.T.Name, fq.key, err)
			}
			f.cache[i] = grow(f.cache[i], d)
		default:
			f.cache[i] = nil
		}
	}
	f.state = eff.State
	f.forget()
	return eff, true, nil
}

func intersects(a, b map[string]bool) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}
