package epf

import (
	"math"
	"slices"

	"vodplace/internal/mip"
)

// WarmLP is the fractional point an LP descent ended on — the ε-feasible
// incumbent when it converged — stored flat: one CSR over all videos' rows
// instead of a slice per row (16 B per nonzero + 8 B per row: 508 B per
// video on the benchmark's 2000-video, 55-office catalog). Video p
// (WarmState.Pos) owns rows Row[p]..Row[p+1]-1: first its open row y, then
// one assignment row per demand office, in the order of the Js the point was
// built for.
//
// It is the one form every snapshot of a solver's point takes: the solver
// keeps its incumbent in it, rounding reads its threshold seed off it, and
// the copy on a WarmState is the producing solve's own, shared with nothing.
type WarmLP struct {
	// Offices is the office count of the producing instance; a consuming
	// instance with a different count ignores the point.
	Offices int
	// Row indexes each video's first row; len = videos + 1.
	Row []int32
	// J is the demand office a row assigns, -1 for a video's open row. A
	// video is resumed only when these equal the consuming instance's Js.
	J []int32
	// Off indexes each row's entries in Frac; len = rows + 1.
	Off []int32
	// Frac is the arena of sparse (office, value) entries, ascending office
	// within a row.
	Frac []mip.Frac
}

// WarmBound is the carried lower bound split per video: the term LB_p(λ) each
// video contributed to LR(λ) = Σ_p LB_p(λ) − λ·b at the exported duals λ, and
// a packed copy of every input the term read. A term is the dual-ascent bound
// of the video's facility-location block at λ, and that block is a function
// of λ, of the instance-wide inputs below and of the video's own size, rate,
// demand offices, aggregates, concurrency nonzeros and — when UpdateWeight ≠
// 0 — origin. So a later solve that re-evaluates the same λ (the warm seed)
// takes the term of every video whose inputs equal the packed ones byte for
// byte and solves only the other blocks; the sum runs through the same
// fixed-leaf reduction, so the bound is bit-identical to a full sweep.
type WarmBound struct {
	// Duals is λ: a copy, so a caller editing WarmState.RowDuals cannot make
	// the terms stale (any difference from RowDuals voids every term).
	Duals []float64
	// The instance-wide inputs: the cost coefficients, the update weight, the
	// office, link and slice counts, and a copy of the path table as
	// topology.Graph.PathCSR returns it. Any difference voids every term.
	Alpha, Beta, UpdateWeight float64
	Offices, Links, Slices    int
	PathLinks, PathOff        []int32
	// Term[p] is the term of the video at position p (WarmState.Pos): the
	// adjusted block bound when the certify tier certified the bound.
	Term []float64
	// Lift is the certified bound over the descent's own at the export, 1
	// unless the certify tier raised it. A re-solve that carries terms
	// starts its objective-row target at its seed bound over Lift, where the
	// producing descent's target stood, not at the adjusted bound.
	Lift float64
	// Inputs[p] is that video's packed inputs (appendBlockInputs): 32-bit
	// words, each float64 as its two halves — 172 B per video on the
	// benchmark's 2000-video, 55-office catalog. A video whose inputs matched
	// the state this solve consumed shares that state's slice (states are
	// read-only), so a chain of re-solves holds one copy of a clean video's
	// inputs, not one per state; the videos packed afresh share one arena.
	Inputs [][]uint32
}

// WarmState is the cross-period carryover exported on every Result: the
// final Lagrangian row duals, the descent's final penalty scale, the
// fractional point the LP descent ended on, the bound's per-video terms, each
// video's final open office set keyed by the catalog's stable video ID and,
// after SolveInteger, the integer placement itself with the yardstick it was
// accepted by. A later solve over a shifted instance accepts it via
// Options.Warm and resumes from it: its initial point, its initial lower
// bound, its facility-location local searches and its rounding all start
// where the previous solve stopped.
//
// Staleness rules: the dual vector is used only when its dimension matches
// the new instance's coupling rows exactly (same office count, link count
// and slice count). The initial point is chosen per video ID, down a ladder:
// the carried LP block when the instance still lists the same demand offices
// for the video, else the open set (every listed office holds a copy, each
// demand office served from its cheapest), else — unknown ID, office out of
// range — the cold single-copy init. The solver derives what changed from
// the instance itself, so catalog churn (new releases, evictions) and demand
// edits degrade gracefully, one video at a time. A warm solve is therefore
// always well-formed; warmth only changes the starting point, and every
// bound it reports is re-derived on the new instance.
//
// Rounding resumes the same way (round.go, seed R): each video's carried
// integer block — Open plus its Assign rows — is loaded when the video would
// also resume its LP block and every assignment is to one of its open
// offices, else the video drops down the same ladder. Every carried array is
// bounds-checked per video, so a truncated or foreign state costs the videos
// it garbles their resume and nothing else.
//
// The carried bound is re-derived the same way: the carried duals are
// evaluated on the new instance, each video's term taken from Bound when its
// inputs are unchanged (WarmBound) and solved otherwise — a mismatch, a
// truncated array or a position the state does not cover costs that video
// one block solve, never a stale term. The term values themselves are the
// producing solve's and are trusted like the rest of the state: edited by
// hand, they give a bound the duals do not certify, which verify.Audit
// rejects.
//
// A WarmState is read-only to the solve consuming it: the solver copies out
// of it and never writes, so one state can seed a retry after a rejected
// attempt, or several solves at once.
type WarmState struct {
	// RowDuals is the coupling-row dual vector that certified the previous
	// solve's lower bound (layout as Result.RowDuals). It aliases the
	// producing Result's RowDuals slice; treat it as read-only. Duals are
	// keyed by coupling row, never by the instance's shard layout, so warm
	// states move freely between instances built with different layouts.
	RowDuals []float64
	// Delta is the penalty scale δ the previous LP descent ended at.
	Delta float64
	// Pos maps a catalog video ID to the video's position p in the
	// producing solve's instance, the index OpenOff, LP.Row, Bound.Term and
	// Bound.Inputs are read at: Pos[id] = p, or −1 when the state carries
	// nothing for the video (it was not in that instance, or held no copy).
	// A negative ID or one at or past len(Pos) is absent too. Flat and
	// sized by the largest ID, like the serving snapshot's id table.
	Pos []int32
	// OpenOff and Open are every position's final open office set,
	// ascending, in CSR form over one arena: position p's set is
	// Open[OpenOff[p]:OpenOff[p+1]], empty for a video Pos does not list.
	OpenOff []int32
	Open    []int32
	// LP is the fractional point the producing solve's LP phase ended on
	// (for SolveInteger, the point rounding started from). Nil on states
	// assembled by hand; every block then starts from its open set.
	LP *WarmLP
	// Bound is the certified bound's per-video terms at RowDuals with the
	// inputs they read. Nil when the bound is still the no-network one (no
	// evaluation set the duals) and on states assembled by hand; every term
	// is then solved.
	Bound *WarmBound
	// Assign is the integer placement's assignment, flat on LP's row index:
	// Assign[r] is the office serving the demand office LP.J[r], -1 on a
	// video's open row (its copies are its Open set). 4 B per row, ≈ 75 KB
	// at 2000 videos. Nil unless SolveInteger produced the state; rounding
	// then starts from scratch.
	Assign []int32
	// RoundRef is the rounding reference: best score ÷ lower bound of the
	// from-scratch attempt, from the most recent rounding that ran one. A
	// resumed rounding is accepted when its own ratio is no worse, and hands
	// the reference on unchanged, so a chain of resumed rounds is always
	// measured against a full one and cannot ratchet. 0 when there is none
	// (no rounding ran, or the bound was 0): never accepted.
	RoundRef float64
}

// exportWarm captures the solver's final state as a WarmState, once per
// solve, from the entry points: any Result can seed the next period. lp is
// the packed point the LP phase ended on (the final point after Solve; the
// one rounding started from after SolveInteger). Everything else is copied
// out of the live point, so the state shares no memory with Result.Sol. The
// export reads only driver-goroutine state and never feeds back into the
// producing solve.
func (s *solver) exportWarm(res *Result, lp *WarmLP) *WarmState {
	w := &WarmState{
		RowDuals: res.RowDuals,
		Delta:    s.lpDelta,
		LP:       lp,
		Bound:    s.exportBound(),
	}
	s.exportOpenSets(w)
	if res.Rounded {
		w.Assign = s.packAssign(w.LP)
		w.RoundRef = s.roundRef
	}
	return w
}

// exportOpenSets fills w's ID table and open-set CSR from the live point:
// each video's appendOpenSet at its position, carved from one arena sized by
// the point's open entries, and its ID mapped to that position when the set
// is not empty. A later video with the same ID takes the table entry.
func (s *solver) exportOpenSets(w *WarmState) {
	maxID, entries := -1, 0
	for vi := range s.sol {
		maxID = max(maxID, s.inst.Demands[vi].Video)
		entries += len(s.sol[vi].Open)
	}
	w.Pos = make([]int32, maxID+1)
	for id := range w.Pos {
		w.Pos[id] = -1
	}
	w.OpenOff = make([]int32, len(s.sol)+1)
	w.Open = make([]int32, 0, entries)
	for vi := range s.sol {
		at := len(w.Open)
		w.Open = appendOpenSet(w.Open, s.sol[vi].Open)
		w.OpenOff[vi+1] = int32(len(w.Open))
		if id := s.inst.Demands[vi].Video; id >= 0 && len(w.Open) > at {
			w.Pos[id] = int32(vi)
		}
	}
}

// videoPos returns the position w carries catalog video id at, or −1 when
// it carries nothing for the video.
func (w *WarmState) videoPos(id int) int {
	if id < 0 || id >= len(w.Pos) || w.Pos[id] < 0 {
		return -1
	}
	return int(w.Pos[id])
}

// exportBound packs the terms of the certified bound (the bound step's terms
// at its duals) with the inputs they read, or returns nil when no evaluation
// set the duals. The terms and carried inputs are handed over, not copied:
// the solver is done with them. A video whose inputs the warm seed matched
// keeps the carried slice; the rest are packed into one fresh arena.
func (s *solver) exportBound() *WarmBound {
	b := &s.bound
	if b.terms == nil {
		return nil
	}
	inputs := b.carriedIn
	if inputs == nil {
		inputs = make([][]uint32, len(s.sol))
	}
	words := 0
	for vi, in := range inputs {
		if in == nil {
			d := &s.inst.Demands[vi]
			words += 5 + 4*len(d.Js) + 3*d.NNZ() // appendBlockInputs' length
		}
	}
	arena := make([]uint32, 0, words)
	for vi, in := range inputs {
		if in == nil {
			at := len(arena)
			arena = s.appendBlockInputs(arena, vi)
			inputs[vi] = arena[at:len(arena):len(arena)]
		}
	}
	lift := 1.0
	if b.target > 0 && s.lb > b.target {
		lift = s.lb / b.target
	}
	links, off := s.inst.G.PathCSR()
	return &WarmBound{
		Duals: slices.Clone(b.duals),
		Alpha: s.inst.Alpha, Beta: s.inst.Beta, UpdateWeight: s.inst.UpdateWeight,
		Offices: s.n, Links: s.L, Slices: s.T,
		PathLinks: slices.Clone(links), PathOff: slices.Clone(off),
		Term:   b.terms,
		Lift:   lift,
		Inputs: inputs,
	}
}

// appendBlockInputs appends to dst the per-video inputs of block vi's bound
// term, as 32-bit words: the origin (0 when UpdateWeight is 0, which leaves
// it unread), SizeGB and RateMbps, then per demand office its index, Agg, the
// count of concurrency nonzeros and each nonzero's slice and value. A float64
// is two words, its bits. Read from the front the words decode uniquely, so
// two videos pack equal exactly when every input is the same bits.
func (s *solver) appendBlockInputs(dst []uint32, vi int) []uint32 {
	d := &s.inst.Demands[vi]
	var origin int32
	if s.inst.UpdateWeight != 0 && len(s.inst.Origin) > 0 {
		origin = s.inst.Origin[vi]
	}
	dst = appendFloatBits(append(dst, uint32(origin)), d.SizeGB)
	dst = appendFloatBits(dst, d.RateMbps)
	for k, j := range d.Js {
		dst = appendFloatBits(append(dst, uint32(j)), d.Agg[k])
		ts, vs := d.ConcNZ(k)
		dst = append(dst, uint32(len(ts)))
		for x, t := range ts {
			dst = appendFloatBits(append(dst, uint32(t)), vs[x])
		}
	}
	return dst
}

// appendFloatBits appends the bits of f as two words, low half first.
func appendFloatBits(dst []uint32, f float64) []uint32 {
	u := math.Float64bits(f)
	return append(dst, uint32(u), uint32(u>>32))
}

// carriedTerms prepares the warm seed's evaluation at w.RowDuals: when the
// state's Bound was evaluated at those duals on the same instance-wide
// inputs, every block whose packed inputs match its carried ones byte for
// byte gets its carried term in lbBuf and a mark in the bound step's keep, so
// the fan-out solves only the others, and its carried inputs in its carriedIn
// for the export. It returns how many terms it carried.
func (s *solver) carriedTerms(w *WarmState) int {
	b := w.Bound
	if b == nil || !s.sameBoundInputs(b, w.RowDuals) {
		return 0
	}
	s.bound.keep, s.bound.carriedIn = make([]bool, len(s.sol)), make([][]uint32, len(s.sol))
	var buf []uint32
	carried := 0
	for vi := range s.sol {
		p := w.videoPos(s.inst.Demands[vi].Video)
		if p < 0 || p >= len(b.Term) || p >= len(b.Inputs) {
			continue
		}
		buf = s.appendBlockInputs(buf[:0], vi)
		if !slices.Equal(buf, b.Inputs[p]) {
			continue
		}
		s.lbBuf[vi] = b.Term[p]
		s.bound.keep[vi] = true
		s.bound.carriedIn[vi] = b.Inputs[p]
		carried++
	}
	return carried
}

// sameBoundInputs reports whether b's terms were evaluated at duals on this
// instance's instance-wide inputs, bit for bit.
func (s *solver) sameBoundInputs(b *WarmBound, duals []float64) bool {
	links, off := s.inst.G.PathCSR()
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return slices.EqualFunc(b.Duals, duals, sameBits) &&
		sameBits(b.Alpha, s.inst.Alpha) && sameBits(b.Beta, s.inst.Beta) &&
		sameBits(b.UpdateWeight, s.inst.UpdateWeight) &&
		b.Offices == s.n && b.Links == s.L && b.Slices == s.T &&
		slices.Equal(b.PathLinks, links) && slices.Equal(b.PathOff, off)
}

// packAssign flattens the final integer assignment onto lp's row index (see
// WarmState.Assign). A row a cancelled rounding left fractional carries its
// largest share; the loader falls back if that office is not open.
func (s *solver) packAssign(lp *WarmLP) []int32 {
	out := make([]int32, len(lp.J))
	for vi := range s.sol {
		r := int(lp.Row[vi])
		out[r] = -1
		for k, fr := range s.sol[vi].Assign {
			var best mip.Frac
			for _, f := range fr {
				if f.V > best.V {
					best = f
				}
			}
			out[r+1+k] = best.I
		}
	}
	return out
}

// packPoint flattens the live point into lp, reusing its arrays (sized once,
// before the copy) — the one way a point is snapshotted.
func (s *solver) packPoint(lp *WarmLP) *WarmLP {
	rows, fracs := 0, 0
	for vi := range s.sol {
		p := &s.sol[vi]
		rows += 1 + len(p.Assign)
		fracs += len(p.Open)
		for _, fr := range p.Assign {
			fracs += len(fr)
		}
	}
	lp.Offices = s.n
	lp.Row = slices.Grow(lp.Row[:0], len(s.sol)+1)
	lp.J = slices.Grow(lp.J[:0], rows)
	lp.Off = slices.Grow(lp.Off[:0], rows+1)
	lp.Frac = slices.Grow(lp.Frac[:0], fracs)
	for vi := range s.sol {
		p := &s.sol[vi]
		lp.Row = append(lp.Row, int32(len(lp.J)))
		lp.J = append(lp.J, -1)
		lp.Off = append(lp.Off, int32(len(lp.Frac)))
		lp.Frac = append(lp.Frac, p.Open...)
		for k, fr := range p.Assign {
			lp.J = append(lp.J, s.inst.Demands[vi].Js[k])
			lp.Off = append(lp.Off, int32(len(lp.Frac)))
			lp.Frac = append(lp.Frac, fr...)
		}
	}
	lp.Row = append(lp.Row, int32(len(lp.J)))
	lp.Off = append(lp.Off, int32(len(lp.Frac)))
	return lp
}

// carriedRows locates video vi's rows [lo, hi) of the carried LP point — the
// open row, then one row per demand office. It reports false when the state
// has no rows this instance can use for the video: no LP carried, a different
// office count, an unknown video ID, a position or row range outside the
// carried arrays, or demand offices that are no longer the ones the point was
// built for.
func (s *solver) carriedRows(vi int) (lo, hi int, ok bool) {
	w := s.opts.Warm
	if w == nil || w.LP == nil || w.LP.Offices != s.n {
		return 0, 0, false
	}
	lp := w.LP
	d := &s.inst.Demands[vi]
	p := w.videoPos(d.Video)
	if p < 0 || p+1 >= len(lp.Row) {
		return 0, 0, false
	}
	lo, hi = int(lp.Row[p]), int(lp.Row[p+1])
	if lo < 0 || hi > len(lp.J) || hi-lo != 1+len(d.Js) || !slices.Equal(lp.J[lo+1:hi], d.Js) {
		return 0, 0, false
	}
	return lo, hi, true
}

// resumeBlock loads block vi from the carried LP point into arena (returned,
// grown). It reports false — block untouched — when there is no point for
// this video (carriedRows) or the point's entries are unusable (loadBlock).
func (s *solver) resumeBlock(vi int, arena []mip.Frac) ([]mip.Frac, bool) {
	lo, hi, ok := s.carriedRows(vi)
	if !ok {
		return arena, false
	}
	return s.loadBlock(vi, s.opts.Warm.LP, lo, hi, arena)
}

// loadBlock overwrites block vi with rows [lo, hi) of the packed point lp —
// the open row, then one row per demand office — copying them into arena
// (returned, grown): the one way a packed point comes back. lp may be a
// foreign state's: it reports false — block untouched — when the rows' entries
// fall outside the carried arena or the office range. Every row is carved at
// full capacity, so a later append in mixBlock reallocates that row instead of
// spilling into its neighbour.
func (s *solver) loadBlock(vi int, lp *WarmLP, lo, hi int, arena []mip.Frac) ([]mip.Frac, bool) {
	if hi >= len(lp.Off) || lp.Off[lo] < 0 || int(lp.Off[hi]) > len(lp.Frac) ||
		!slices.IsSorted(lp.Off[lo:hi+1]) {
		return arena, false
	}
	for _, f := range lp.Frac[lp.Off[lo]:lp.Off[hi]] {
		if f.I < 0 || int(f.I) >= s.n {
			return arena, false
		}
	}
	row := func(r int) []mip.Frac {
		at := len(arena)
		arena = append(arena, lp.Frac[lp.Off[r]:lp.Off[r+1]]...)
		return arena[at:len(arena):len(arena)]
	}
	bs := &s.sol[vi]
	bs.Open = row(lo)
	if bs.Assign == nil || len(bs.Assign) != hi-lo-1 {
		bs.Assign = make([][]mip.Frac, hi-lo-1)
	}
	for k := range bs.Assign {
		bs.Assign[k] = row(lo + 1 + k)
	}
	return arena, true
}

// placeBlock loads block vi from the carried integer placement: the video's
// open set at full copies and each demand office served from its carried
// assignment. It reports false — block untouched — when the video would not
// resume its LP block either (carriedRows), the assignment array is shorter
// than the rows, the open set is unusable, or a row is assigned to an office
// that holds no copy.
func (s *solver) placeBlock(vi int) bool {
	lo, hi, ok := s.carriedRows(vi)
	w := s.opts.Warm
	if !ok || hi > len(w.Assign) {
		return false
	}
	open := s.warmVideoOpen(vi)
	if open == nil {
		return false
	}
	assign := w.Assign[lo+1 : hi]
	for _, i := range assign {
		if !slices.Contains(open, i) {
			return false
		}
	}
	s.setIntBlock(vi, open, assign)
	return true
}

// appendOpenSet appends the integral open set of a block to dst: offices
// with y ≥ mip.OpenY, falling back to the largest-y office when the block is
// spread thin. The input is ascending, so the output is too.
func appendOpenSet(dst []int32, open []mip.Frac) []int32 {
	at := len(dst)
	var best int32 = -1
	var bestV float64
	for _, f := range open {
		if f.V > bestV {
			bestV, best = f.V, f.I
		}
		if f.V >= mip.OpenY {
			dst = append(dst, f.I)
		}
	}
	if len(dst) == at && best >= 0 {
		dst = append(dst, best)
	}
	return dst
}

// warmVideoOpen returns the valid warm open set for video index vi, or nil
// when the warm state has none (unknown ID, an offset range outside the
// arena, offices outside [0, n) from a topology change, or a list that is
// not strictly ascending) — the per-video cold fallback.
func (s *solver) warmVideoOpen(vi int) []int32 {
	w := s.opts.Warm
	if w == nil {
		return nil
	}
	p := w.videoPos(s.inst.Demands[vi].Video)
	if p < 0 || p+1 >= len(w.OpenOff) {
		return nil
	}
	lo, hi := w.OpenOff[p], w.OpenOff[p+1]
	if lo < 0 || hi <= lo || int(hi) > len(w.Open) {
		return nil
	}
	open := w.Open[lo:hi:hi]
	for x, i := range open {
		if i < 0 || int(i) >= s.n || (x > 0 && i <= open[x-1]) {
			return nil
		}
	}
	return open
}

// setIntBlock overwrites block vi with an integer block: a full copy at each
// office of open (ascending), demand office k served from assign[k]. Rows are
// written in place, reusing their backing arrays, so a block the descent has
// used can be re-seeded or replaced without allocating.
func (s *solver) setIntBlock(vi int, open, assign []int32) {
	bs := &s.sol[vi]
	bs.Open = bs.Open[:0]
	for _, i := range open {
		bs.Open = append(bs.Open, mip.Frac{I: i, V: 1})
	}
	if bs.Assign == nil {
		bs.Assign = make([][]mip.Frac, len(assign))
	}
	for k, i := range assign {
		bs.Assign[k] = append(bs.Assign[k][:0], mip.Frac{I: i, V: 1})
	}
}

// seedWarmBlock initializes block vi from the warm open set: every listed
// office holds a full copy and each demand office is served from its
// cheapest open copy (lowest index on ties, matching the deterministic scan
// order used everywhere else).
func (s *solver) seedWarmBlock(vi int, open []int32) {
	d := &s.inst.Demands[vi]
	n := s.n
	assign := s.seedAssign[:0]
	for _, j := range d.Js {
		col := s.costT[int(j)*n : (int(j)+1)*n]
		bi := open[0]
		bc := col[open[0]]
		for _, i := range open[1:] {
			if col[i] < bc {
				bc, bi = col[i], i
			}
		}
		assign = append(assign, bi)
	}
	s.seedAssign = assign
	s.setIntBlock(vi, open, assign)
}

// seedColdBlock is the bottom of the ladder, and every block's start on a
// cold solve: one copy at the video's highest-demand office, serving
// everything.
func (s *solver) seedColdBlock(vi int) {
	d := &s.inst.Demands[vi]
	home := int32(vi % s.n)
	var bestA float64 = -1
	for k, a := range d.Agg {
		if a > bestA {
			bestA = a
			home = d.Js[k]
		}
	}
	s.seedWarmBlock(vi, []int32{home})
}

// seedBlocks initializes every block down the warm ladder — load (the
// carried LP block for the descent, the carried integer block for rounding),
// else the carried open set, else the cold single copy — and reports how many
// took the first rung and how many either warm one.
func (s *solver) seedBlocks(load func(vi int) bool) (loaded, warm int) {
	for vi := range s.sol {
		if load(vi) {
			loaded++
			warm++
		} else if open := s.warmVideoOpen(vi); open != nil {
			s.seedWarmBlock(vi, open)
			warm++
		} else {
			s.seedColdBlock(vi)
		}
	}
	return loaded, warm
}

// seedWarmDescent folds the warm state into the freshly initialized descent:
// the previous duals are re-evaluated on this instance (a valid Lagrangian
// bound wherever they came from, so the certificate invariant holds — if the
// warm bound wins, the bound step's duals are exactly the vector that
// achieves it and its warm flag records the win for the scale search),
// solving only the blocks whose carried term does not apply (carriedTerms),
// with the objective-row target at that bound over the carried terms' lift;
// the previous δ may sharpen the initial penalty scale but never below the
// seeded point's actual violation. Called from initDescent, after the cold
// defaults are in place.
func (s *solver) seedWarmDescent() {
	w := s.opts.Warm
	if w == nil {
		return
	}
	dualsOK := len(w.RowDuals) == s.rows && finiteNonNegative(w.RowDuals)
	if dualsOK {
		b := &s.bound
		carried := s.carriedTerms(w)
		s.stats.LBTermsReused = int64(carried)
		lr, _ := s.lagrangianEval(w.RowDuals, false)
		b.keep = nil
		if lr > s.lb {
			s.lb, b.target = lr, lr
			if carried > 0 && w.Bound.Lift > 1 && !math.IsInf(w.Bound.Lift, 1) {
				b.target = lr / w.Bound.Lift // the carried terms' lift (WarmBound)
			}
			b.warm, b.seeded = true, true
			copy(b.duals, w.RowDuals)
			b.snapshotTerms()
		}
		b.scale = 1
		b.retarget()
	}
	// The δ hint describes where the previous descent's *guided* trajectory
	// ended; without the dual guidance (stale vector rejected above) a small
	// δ over the concentrated warm point sends the exponential penalties into
	// overdrive and the descent thrashes — so it rides only with the duals.
	if !dualsOK {
		return
	}
	if w.Delta > 0 {
		dc, _ := s.maxCouplingViol()
		floor := math.Max(dc, s.opts.Epsilon/2)
		if d := math.Max(w.Delta, floor); d < s.delta {
			s.delta = d
			s.alpha = s.gammaLnM1 / s.delta
		}
	}
}

// finiteNonNegative reports whether every entry is a usable dual value.
func finiteNonNegative(v []float64) bool {
	for _, x := range v {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
