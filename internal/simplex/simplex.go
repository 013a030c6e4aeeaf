// Package simplex is a self-contained dense two-phase primal simplex LP
// solver. It plays the role CPLEX plays in the paper's Table III: a
// general-purpose LP method that solves the full placement LP relaxation
// exactly, but whose time and memory blow up superlinearly with library
// size — the comparison point that motivates the EPF decomposition. It also
// cross-validates the EPF solver's objective and lower bound on small
// instances in the integration tests.
//
// The implementation is a textbook dense tableau: constraints are
// standardized to equalities with slack/surplus variables, phase 1
// minimizes the sum of artificial variables, phase 2 the real objective.
// Dantzig pricing with a Bland's-rule fallback provides anti-cycling.
package simplex

import (
	"fmt"
	"math"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // ≤
	GE           // ≥
	EQ           // =
)

// Coef is one sparse constraint coefficient.
type Coef struct {
	Var int
	Val float64
}

type row struct {
	op    Op
	rhs   float64
	coefs []Coef
}

// LP is a linear program: minimize C·x subject to the added rows and x ≥ 0.
type LP struct {
	numVars int
	c       []float64
	rows    []row
}

// NewLP returns an LP with numVars non-negative variables and zero objective.
func NewLP(numVars int) *LP {
	return &LP{numVars: numVars, c: make([]float64, numVars)}
}

// SetObjective sets the cost of variable v.
func (lp *LP) SetObjective(v int, cost float64) {
	lp.c[v] = cost
}

// AddRow adds the constraint Σ coefs {op} rhs.
func (lp *LP) AddRow(op Op, rhs float64, coefs ...Coef) error {
	for _, cf := range coefs {
		if cf.Var < 0 || cf.Var >= lp.numVars {
			return fmt.Errorf("simplex: coefficient references variable %d of %d", cf.Var, lp.numVars)
		}
	}
	lp.rows = append(lp.rows, row{op: op, rhs: rhs, coefs: append([]Coef(nil), coefs...)})
	return nil
}

// Status is the solver outcome.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Result is the solver output.
type Result struct {
	Status    Status
	Objective float64
	X         []float64
}

const (
	tol = 1e-9
	// blandAfter switches to Bland's rule after this many Dantzig pivots
	// without termination, guaranteeing no cycling.
	blandAfter = 20000
)

// Solve runs two-phase primal simplex and returns the result. Memory is
// O(rows × (vars + rows)) — the point of the Table III comparison.
func Solve(lp *LP) (Result, error) {
	m := len(lp.rows)
	n := lp.numVars
	if m == 0 {
		// Unconstrained: x = 0 is optimal for non-negative costs; a negative
		// cost makes the LP unbounded.
		for _, c := range lp.c {
			if c < -tol {
				return Result{Status: Unbounded}, nil
			}
		}
		return Result{Status: Optimal, X: make([]float64, n)}, nil
	}

	// Standardize: count slack and artificial columns.
	numSlack := 0
	numArt := 0
	for _, r := range lp.rows {
		op, rhs := r.op, r.rhs
		if rhs < 0 {
			op = flip(op)
		}
		switch op {
		case LE:
			numSlack++
		case GE:
			numSlack++
			numArt++
		case EQ:
			numArt++
		}
	}
	total := n + numSlack + numArt
	width := total + 1 // + rhs column

	// Build tableau rows.
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackAt := n
	artAt := n + numSlack
	artCols := make([]bool, total)
	for i, r := range lp.rows {
		tr := make([]float64, width)
		sign := 1.0
		op := r.op
		if r.rhs < 0 {
			sign = -1
			op = flip(op)
		}
		for _, cf := range r.coefs {
			tr[cf.Var] += sign * cf.Val
		}
		tr[total] = sign * r.rhs
		switch op {
		case LE:
			tr[slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			tr[slackAt] = -1
			slackAt++
			tr[artAt] = 1
			basis[i] = artAt
			artCols[artAt] = true
			artAt++
		case EQ:
			tr[artAt] = 1
			basis[i] = artAt
			artCols[artAt] = true
			artAt++
		}
		tab[i] = tr
	}

	// Phase 1: minimize the sum of artificials.
	if numArt > 0 {
		// Reduced-cost row for min Σ artificials: start from the phase-1
		// cost vector (1 on artificial columns), then price out the
		// artificial basis.
		objRow := make([]float64, width)
		for c := 0; c < total; c++ {
			if artCols[c] {
				objRow[c] = 1
			}
		}
		for i := range tab {
			if artCols[basis[i]] {
				for c := 0; c < width; c++ {
					objRow[c] -= tab[i][c]
				}
			}
		}
		status := iterate(tab, basis, objRow, artCols, true)
		if status == Unbounded {
			return Result{Status: Infeasible}, nil
		}
		if status == IterLimit {
			return Result{Status: IterLimit}, nil
		}
		if -objRow[total] > 1e-6 {
			return Result{Status: Infeasible}, nil
		}
		// Drive remaining artificials out of the basis when possible; rows
		// whose artificial cannot leave are redundant and stay at zero.
		for i := range basis {
			if !artCols[basis[i]] {
				continue
			}
			for c := 0; c < n+numSlack; c++ {
				if math.Abs(tab[i][c]) > 1e-7 && !artCols[c] {
					pivot(tab, basis, i, c)
					break
				}
			}
		}
	}

	// Phase 2: the real objective. Reduced-cost row from original costs.
	objRow := make([]float64, width)
	for v := 0; v < n; v++ {
		objRow[v] = lp.c[v]
	}
	for i := range tab {
		bv := basis[i]
		if bv < n && lp.c[bv] != 0 {
			coef := lp.c[bv]
			for c := 0; c < width; c++ {
				objRow[c] -= coef * tab[i][c]
			}
		}
	}
	status := iterate(tab, basis, objRow, artCols, false)
	if status != Optimal {
		return Result{Status: status}, nil
	}

	x := make([]float64, n)
	for i, bv := range basis {
		if bv < n {
			x[bv] = tab[i][total]
		}
	}
	var obj float64
	for v := 0; v < n; v++ {
		obj += lp.c[v] * x[v]
	}
	return Result{Status: Optimal, Objective: obj, X: x}, nil
}

func flip(op Op) Op {
	switch op {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// iterate runs simplex pivots on the tableau until optimality (no negative
// reduced cost), unboundedness, or the iteration cap. In phase 1
// (phase1=true) artificial columns may re-enter only while... they may not
// re-enter at all once their reduced cost is non-negative; in phase 2 they
// are excluded entirely.
func iterate(tab [][]float64, basis []int, objRow []float64, artCols []bool, phase1 bool) Status {
	m := len(tab)
	width := len(objRow)
	total := width - 1
	for iter := 0; ; iter++ {
		if iter > blandAfter*4 {
			return IterLimit
		}
		bland := iter > blandAfter
		// Entering column: most negative reduced cost (Dantzig) or first
		// negative (Bland).
		enter := -1
		best := -tol
		for c := 0; c < total; c++ {
			if !phase1 && artCols[c] {
				continue
			}
			rc := objRow[c]
			if rc < best {
				enter = c
				if bland {
					break
				}
				best = rc
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][enter]
			if a > tol {
				ratio := tab[i][total] / a
				if ratio < bestRatio-tol || (bland && ratio < bestRatio+tol && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		pivotWithObj(tab, basis, objRow, leave, enter)
	}
}

// pivot performs a basis exchange on constraint rows only.
func pivot(tab [][]float64, basis []int, r, c int) {
	width := len(tab[r])
	pv := tab[r][c]
	inv := 1 / pv
	for j := 0; j < width; j++ {
		tab[r][j] *= inv
	}
	tab[r][c] = 1 // exact
	for i := range tab {
		if i == r {
			continue
		}
		f := tab[i][c]
		if f == 0 {
			continue
		}
		for j := 0; j < width; j++ {
			tab[i][j] -= f * tab[r][j]
		}
		tab[i][c] = 0
	}
	basis[r] = c
}

// pivotWithObj is pivot plus the objective-row update.
func pivotWithObj(tab [][]float64, basis []int, objRow []float64, r, c int) {
	pivot(tab, basis, r, c)
	f := objRow[c]
	if f != 0 {
		width := len(objRow)
		for j := 0; j < width; j++ {
			objRow[j] -= f * tab[r][j]
		}
		objRow[c] = 0
	}
}
