// Package topology models the VHO backbone network: a set of video hub
// offices (vertices) connected by directed links, with a fixed shortest-path
// route between every ordered pair of offices.
//
// The placement MIP only consumes the *set* of links on the path P_ij from a
// serving office i to a requesting office j and the hop count |P_ij|; the
// order of links is irrelevant (§V-A of the paper). Paths are computed once
// with a deterministic breadth-first search, matching the paper's assumption
// of predetermined shortest-path routing rather than arbitrary routing.
package topology

import (
	"fmt"
	"math/rand"
	"sort"
)

// Link is one directed backbone link between two offices.
type Link struct {
	From, To int
}

// Graph is a backbone network with a fixed routing table. The zero value is
// an empty graph; use New and AddEdge, then Build, or one of the generator
// functions (Backbone55, Tree, FullMesh, Tiscali, Sprint, Ebone).
type Graph struct {
	name  string
	n     int
	links []Link
	index map[Link]int
	adj   [][]int // adj[u] = sorted neighbor node ids
	// Routing table in CSR (compressed sparse row) form: the link ids on the
	// fixed route i -> j are pathLinks[pathOff[i*n+j]:pathOff[i*n+j+1]], in
	// path order (empty for i == j). One flat array instead of n² small
	// slices keeps the solver's path walks on contiguous cache lines.
	pathLinks []int32
	pathOff   []int32 // len n*n+1
	built     bool
}

// New returns an empty graph over n offices. Office ids are 0..n-1.
func New(name string, n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("topology: graph needs at least one node, got %d", n))
	}
	return &Graph{
		name:  name,
		n:     n,
		index: make(map[Link]int),
		adj:   make([][]int, n),
	}
}

// Name returns the human-readable topology name (e.g. "backbone55").
func (g *Graph) Name() string { return g.name }

// NumNodes returns the number of offices.
func (g *Graph) NumNodes() int { return g.n }

// NumLinks returns the number of directed links (twice the number of
// bidirectional edges).
func (g *Graph) NumLinks() int { return len(g.links) }

// NumEdges returns the number of bidirectional edges.
func (g *Graph) NumEdges() int { return len(g.links) / 2 }

// Links returns the directed link table. The caller must not modify it.
func (g *Graph) Links() []Link { return g.links }

// Link returns directed link l.
func (g *Graph) Link(l int) Link { return g.links[l] }

// LinkID returns the id of the directed link u->v and whether it exists.
func (g *Graph) LinkID(u, v int) (int, bool) {
	id, ok := g.index[Link{u, v}]
	return id, ok
}

// AddEdge adds a bidirectional edge between u and v (two directed links).
// Duplicate edges and self-loops are rejected with an error. AddEdge must not
// be called after Build.
func (g *Graph) AddEdge(u, v int) error {
	if g.built {
		return fmt.Errorf("topology: AddEdge(%d, %d) after Build", u, v)
	}
	if u == v {
		return fmt.Errorf("topology: self-loop at node %d", u)
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("topology: edge (%d, %d) out of range [0, %d)", u, v, g.n)
	}
	if _, dup := g.index[Link{u, v}]; dup {
		return fmt.Errorf("topology: duplicate edge (%d, %d)", u, v)
	}
	g.index[Link{u, v}] = len(g.links)
	g.links = append(g.links, Link{u, v})
	g.index[Link{v, u}] = len(g.links)
	g.links = append(g.links, Link{v, u})
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return nil
}

// mustAddEdge is AddEdge for generator code where failure is programmer error.
func (g *Graph) mustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// Build finalizes the graph: it sorts adjacency lists for determinism and
// computes the fixed shortest-path routing table with per-source BFS
// (uniform link weights, ties broken toward the lowest-numbered neighbor).
// Build returns an error if the graph is not connected, since a VHO that
// cannot reach a replica cannot be served.
func (g *Graph) Build() error {
	for u := range g.adj {
		sort.Ints(g.adj[u])
	}
	g.pathOff = make([]int32, g.n*g.n+1)
	g.pathLinks = g.pathLinks[:0]
	parent := make([]int, g.n)
	queue := make([]int, 0, g.n)
	rev := make([]int32, 0, g.n)
	for src := 0; src < g.n; src++ {
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = src
		queue = queue[:0]
		queue = append(queue, src)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.adj[u] {
				if parent[v] < 0 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		for dst := 0; dst < g.n; dst++ {
			if parent[dst] < 0 {
				return fmt.Errorf("topology: graph %q is disconnected: node %d unreachable from %d", g.name, dst, src)
			}
			if dst != src {
				// Reconstruct src -> dst and record the directed links in
				// that direction. Walk dst back to src, then append reversed.
				rev = rev[:0]
				for v := dst; v != src; v = parent[v] {
					u := parent[v]
					id, ok := g.index[Link{u, v}]
					if !ok {
						return fmt.Errorf("topology: internal error: missing link (%d, %d)", u, v)
					}
					rev = append(rev, int32(id))
				}
				for i := len(rev) - 1; i >= 0; i-- {
					g.pathLinks = append(g.pathLinks, rev[i])
				}
			}
			g.pathOff[src*g.n+dst+1] = int32(len(g.pathLinks))
		}
	}
	g.built = true
	return nil
}

// mustBuild panics on Build failure; used by generators that construct
// connected graphs by design.
func (g *Graph) mustBuild() *Graph {
	if err := g.Build(); err != nil {
		panic(err)
	}
	return g
}

// Built reports whether Build has completed successfully.
func (g *Graph) Built() bool { return g.built }

// Path returns the link ids on the fixed route from serving office i to
// requesting office j. The path is empty when i == j (local service uses no
// backbone links). The caller must not modify the returned slice (it aliases
// the shared CSR table).
func (g *Graph) Path(i, j int) []int32 {
	if !g.built {
		panic("topology: Path before Build")
	}
	p := i*g.n + j
	return g.pathLinks[g.pathOff[p]:g.pathOff[p+1]:g.pathOff[p+1]]
}

// PathCSR exposes the raw routing table: links is the concatenation of every
// path's link ids and off has length n²+1, so pair p = i*n+j occupies
// links[off[p]:off[p+1]]. Hot kernels index this directly to avoid per-call
// slice construction. Callers must not modify either slice.
func (g *Graph) PathCSR() (links, off []int32) {
	if !g.built {
		panic("topology: PathCSR before Build")
	}
	return g.pathLinks, g.pathOff
}

// Hops returns |P_ij|, the hop count of the fixed route from i to j.
func (g *Graph) Hops(i, j int) int {
	p := i*g.n + j
	return int(g.pathOff[p+1] - g.pathOff[p])
}

// Diameter returns the maximum hop count over all ordered pairs.
func (g *Graph) Diameter() int {
	var d int
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if h := g.Hops(i, j); h > d {
				d = h
			}
		}
	}
	return d
}

// Backbone55 returns a 55-office backbone modelled on the deployed IPTV
// network in the paper's default setup: 55 VHOs and 76 bidirectional links.
// The structure is a national ring with regional cross-links: a Hamiltonian
// ring (55 edges) plus 21 deterministic chords connecting offices roughly a
// quarter of the ring apart, giving hop counts and path diversity similar to
// published ISP backbones.
func Backbone55() *Graph {
	const n = 55
	g := New("backbone55", n)
	for i := 0; i < n; i++ {
		g.mustAddEdge(i, (i+1)%n)
	}
	// 21 chords: every third office gets a long-haul link about a quarter of
	// the ring away. Offsets vary slightly so the chords do not all have the
	// same length, which would create an overly regular path structure.
	chords := 0
	for i := 0; chords < 21; i += 3 {
		u := i % n
		v := (i + 13 + (i/3)%5) % n
		if u == v {
			continue
		}
		if _, dup := g.index[Link{u, v}]; dup {
			continue
		}
		g.mustAddEdge(u, v)
		chords++
	}
	return g.mustBuild()
}

// Tree returns a tree over n offices (n-1 bidirectional links): office 0 is
// the root and office i attaches to office (i-1)/3, a ternary hierarchy
// resembling a distribution tree. Used for the Table IV topology comparison.
func Tree(n int) *Graph {
	g := New(fmt.Sprintf("tree%d", n), n)
	for i := 1; i < n; i++ {
		g.mustAddEdge(i, (i-1)/3)
	}
	return g.mustBuild()
}

// FullMesh returns the complete graph over n offices (n(n-1)/2 edges), the
// other Table IV hypothetical.
func FullMesh(n int) *Graph {
	g := New(fmt.Sprintf("mesh%d", n), n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.mustAddEdge(i, j)
		}
	}
	return g.mustBuild()
}

// randomConnected returns a graph with n nodes and exactly edges
// bidirectional links: a random spanning tree plus random chords, drawn
// deterministically from seed. It reproduces the node/link counts of the
// Rocketfuel maps used in the paper (the maps themselves are not
// redistributable); only those counts and general path diversity influence
// the experiments.
func randomConnected(name string, n, edges int, seed int64) *Graph {
	if edges < n-1 {
		panic(fmt.Sprintf("topology: %s needs at least %d edges for connectivity, got %d", name, n-1, edges))
	}
	maxEdges := n * (n - 1) / 2
	if edges > maxEdges {
		panic(fmt.Sprintf("topology: %s wants %d edges but only %d possible", name, edges, maxEdges))
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(name, n)
	// Random spanning tree: attach each node to a uniformly random earlier
	// node (a random recursive tree — realistic small-diameter skeleton).
	for i := 1; i < n; i++ {
		g.mustAddEdge(i, rng.Intn(i))
	}
	for g.NumEdges() < edges {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		if _, dup := g.index[Link{u, v}]; dup {
			continue
		}
		g.mustAddEdge(u, v)
	}
	return g.mustBuild()
}

// Tiscali returns a 49-office, 86-edge graph with the node/link counts of the
// Rocketfuel Tiscali map used in §VII (Table IV).
func Tiscali() *Graph { return randomConnected("tiscali", 49, 86, 4901) }

// Sprint returns a 33-office, 69-edge graph with the node/link counts of the
// Rocketfuel Sprint map used in §VII (Table IV).
func Sprint() *Graph { return randomConnected("sprint", 33, 69, 3301) }

// Ebone returns a 23-office, 38-edge graph with the node/link counts of the
// Rocketfuel Ebone map used in §VII (Table IV).
func Ebone() *Graph { return randomConnected("ebone", 23, 38, 2301) }

// Random returns a connected random graph for tests and fuzzing: n nodes and
// approximately density*n extra chords beyond a spanning tree.
func Random(n int, density float64, seed int64) *Graph {
	edges := n - 1 + int(float64(n)*density)
	// A connected graph needs at least a spanning tree; negative or tiny
	// densities (fuzzers pass arbitrary values) clamp to it.
	if edges < n-1 {
		edges = n - 1
	}
	if maxEdges := n * (n - 1) / 2; edges > maxEdges {
		edges = maxEdges
	}
	return randomConnected(fmt.Sprintf("random%d", n), n, edges, seed)
}
