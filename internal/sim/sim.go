// Package sim plays request traces against a content placement, tracking
// every backbone link's bandwidth over time — the custom simulator behind
// all of §VII's comparative results.
//
// A request for video m at office j is served locally when j pins or caches
// the video; otherwise the simulator picks a serving office — by the MIP
// solution's x-distribution, from the region's origin server, or from the
// nearest replica via the same Oracle the paper grants its baselines — and
// the stream occupies every link on the fixed path for the video's full
// duration. Per-5-minute bins record the peak per-link bandwidth (Fig. 5),
// the aggregate transfer volume weighted by hop count (Fig. 6), and cache
// statistics (Fig. 9, Table II).
package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
	"math/rand"

	"vodplace/internal/cache"
	"vodplace/internal/catalog"
	"vodplace/internal/mip"
	"vodplace/internal/obs"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

// BinSec is the metric bin width: 5 minutes, as in Fig. 5.
const BinSec = 300

// Config describes one simulation run.
type Config struct {
	G   *topology.Graph
	Lib *catalog.Library
	// Pinned[i] lists the videos pre-positioned at office i. Every video
	// should be pinned somewhere unless Origins is set.
	Pinned [][]int
	// CacheGB[i] is office i's cache capacity (0 disables the cache there).
	// nil disables caching entirely.
	CacheGB []float64
	// CachePolicy selects the replacement policy for all caches.
	CachePolicy cache.Policy
	// XDist optionally gives the MIP solution's request-routing
	// distribution: for (office j, video m), the fractions x_ij^m. Requests
	// without an entry fall back to the nearest-replica oracle.
	XDist map[workload.JM][]mip.Frac
	// Origins, when non-nil, routes every miss at office j to the origin
	// server attached at office Origins[j] (Table II's comparison), instead
	// of the nearest replica.
	Origins []int
	// Seed drives x-distribution sampling.
	Seed int64
	// Updates are placement changes applied when simulated time reaches
	// AtSec (ascending). They model the periodic re-placement of §VI-C.
	Updates []Update
	// MetricsFromSec excludes earlier requests and bins from the counters
	// and maxima (the paper warms caches for nine days before measuring).
	// Bin series still cover the whole horizon.
	MetricsFromSec int64
	// Recorder, when non-nil, receives one telemetry event per completed
	// metric bin (hit rate, evictions, offered load vs. capacity). Telemetry
	// never feeds back into the simulation.
	Recorder *obs.Recorder
	// Scheme names this run's event stream in the trace (default "sim");
	// comparison runs label each scheme so their bin series stay separate.
	Scheme string
	// LinkCapMbps, when it has one entry per link, lets traced runs report
	// per-bin offered/capacity utilization; the simulator itself never
	// enforces capacities.
	LinkCapMbps []float64
}

// Update is a placement change at a point in simulated time.
type Update struct {
	AtSec  int64
	Pinned [][]int
	// XDist replaces the routing distribution (may be nil to clear it).
	XDist map[workload.JM][]mip.Frac
}

// Result carries the run's metrics.
type Result struct {
	// BinPeakMbps[b] is the maximum per-link bandwidth observed during bin
	// b (the Fig. 5 series). BinAggMbps[b] is the peak aggregate (summed
	// over links) bandwidth in the bin; BinGBHop[b] the gigabytes
	// transferred in the bin summed over links — i.e. GB × hops (Fig. 6).
	BinPeakMbps []float64
	BinAggMbps  []float64
	BinGBHop    []float64

	// MaxLinkMbps is the overall peak per-link bandwidth; MaxAggMbps the
	// overall peak aggregate bandwidth; TotalGBHop the total transfer
	// volume weighted by hop count (the Table VI metric).
	MaxLinkMbps float64
	MaxAggMbps  float64
	TotalGBHop  float64

	Requests     int
	PinnedHits   int // served from the local pinned store
	CacheHits    int // served from the local cache
	RemoteServed int // fetched from another office (or origin)
	Uncachable   int // misses that could not be admitted to the local cache
	Evictions    int // cache evictions across all offices

	// MigratedVideos and MigratedGB count the copies each placement update
	// had to add relative to the previous placement (§VII-H's update cost;
	// the paper argues these transfers are piggybacked off-peak, so they do
	// not load the links here).
	MigratedVideos int
	MigratedGB     float64

	// LocalFrac is the fraction of requests served locally, the paper's
	// "cache hit rate" (it counts pinned and cached service together).
	LocalFrac float64
}

// endEvent is a stream completion.
type endEvent struct {
	time  int64
	src   int
	dst   int
	video int
	rate  float64
	// release lists offices whose cache entry was retained for the stream.
	release []int
}

type endHeap []endEvent

func (h endHeap) Len() int           { return len(h) }
func (h endHeap) Less(a, b int) bool { return h[a].time < h[b].time }
func (h endHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *endHeap) Push(x any)        { *h = append(*h, x.(endEvent)) }
func (h *endHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// bitset is a fixed-size bitmap over offices.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// tracker maintains per-link loads and per-bin metrics.
type tracker struct {
	loads   []float64
	agg     float64
	curBin  int
	lastT   int64
	binPeak []float64
	binAgg  []float64
	binGB   []float64
	// Telemetry extras, active only for traced runs: caps enables per-bin
	// peak utilization tracking (loads[l]/caps[l]), and onBin fires once per
	// completed bin with its final series values — the per-time-slice hook
	// the recorder attaches to.
	caps    []float64
	curUtil float64
	onBin   func(bin int, startSec int64, peak, agg, gb, util float64)
}

func newTracker(links int, bins int) *tracker {
	return &tracker{
		loads:   make([]float64, links),
		binPeak: make([]float64, bins),
		binAgg:  make([]float64, bins),
		binGB:   make([]float64, bins),
	}
}

// advance moves logical time to t, accumulating the aggregate-load integral
// into the bins crossed and seeding each new bin's peaks with the carried
// load.
func (tr *tracker) advance(t int64) {
	for {
		binEnd := int64(tr.curBin+1) * BinSec
		if t < binEnd {
			break
		}
		tr.accumulate(binEnd)
		if tr.onBin != nil && tr.curBin < len(tr.binPeak) {
			tr.onBin(tr.curBin, int64(tr.curBin)*BinSec,
				tr.binPeak[tr.curBin], tr.binAgg[tr.curBin], tr.binGB[tr.curBin], tr.curUtil)
		}
		tr.curBin++
		if tr.curBin < len(tr.binPeak) {
			// Carried-over load seeds the new bin's peaks.
			var maxLoad, maxUtil float64
			for l, ld := range tr.loads {
				if ld > maxLoad {
					maxLoad = ld
				}
				if tr.caps != nil && tr.caps[l] > 0 {
					if u := ld / tr.caps[l]; u > maxUtil {
						maxUtil = u
					}
				}
			}
			tr.binPeak[tr.curBin] = maxLoad
			tr.binAgg[tr.curBin] = tr.agg
			tr.curUtil = maxUtil
		}
	}
	tr.accumulate(t)
}

// accumulate integrates the aggregate load from lastT to t into the current
// bin's GB counter (Mb/s × s → GB at /8000).
func (tr *tracker) accumulate(t int64) {
	if t <= tr.lastT {
		return
	}
	if tr.curBin < len(tr.binGB) {
		tr.binGB[tr.curBin] += tr.agg * float64(t-tr.lastT) / 8000
	}
	tr.lastT = t
}

func (tr *tracker) bump(kind []float64, v float64) {
	if tr.curBin < len(kind) && v > kind[tr.curBin] {
		kind[tr.curBin] = v
	}
}

func (tr *tracker) addStream(path []int32, rate float64) {
	for _, l := range path {
		tr.loads[l] += rate
		tr.bump(tr.binPeak, tr.loads[l])
		if tr.caps != nil && tr.caps[l] > 0 {
			if u := tr.loads[l] / tr.caps[l]; u > tr.curUtil {
				tr.curUtil = u
			}
		}
	}
	tr.agg += rate * float64(len(path))
	tr.bump(tr.binAgg, tr.agg)
}

func (tr *tracker) removeStream(path []int32, rate float64) {
	for _, l := range path {
		tr.loads[l] -= rate
	}
	tr.agg -= rate * float64(len(path))
}

// Run plays the trace against the configuration.
func Run(cfg Config, tr *workload.Trace) (*Result, error) {
	if cfg.G == nil || !cfg.G.Built() {
		return nil, fmt.Errorf("sim: graph must be built")
	}
	if cfg.Lib == nil || tr == nil {
		return nil, fmt.Errorf("sim: library and trace required")
	}
	n := cfg.G.NumNodes()
	if tr.NumVHOs > n {
		return nil, fmt.Errorf("sim: trace has %d offices but graph has %d", tr.NumVHOs, n)
	}
	if cfg.Pinned != nil && len(cfg.Pinned) != n {
		return nil, fmt.Errorf("sim: %d pinned sets for %d offices", len(cfg.Pinned), n)
	}
	if cfg.Origins != nil && len(cfg.Origins) != n {
		return nil, fmt.Errorf("sim: %d origins for %d offices", len(cfg.Origins), n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	horizon := int64(tr.Days) * workload.SecondsPerDay
	bins := int((horizon + BinSec - 1) / BinSec)
	track := newTracker(cfg.G.NumLinks(), bins)

	// Replica index: pinned and cached locations per video.
	numVideos := cfg.Lib.Len()
	pinnedAt := make([]bitset, numVideos)
	cachedAt := make([]bitset, numVideos)
	for v := 0; v < numVideos; v++ {
		pinnedAt[v] = newBitset(n)
		cachedAt[v] = newBitset(n)
	}
	for i, vids := range cfg.Pinned {
		for _, v := range vids {
			pinnedAt[v].set(i)
		}
	}

	// Offices sorted by hop distance from each office, for oracle lookups.
	order := make([][]int, n)
	for j := 0; j < n; j++ {
		order[j] = make([]int, n)
		for i := range order[j] {
			order[j][i] = i
		}
		js := order[j]
		// Insertion sort by (hops, index): n is small.
		for a := 1; a < len(js); a++ {
			for b := a; b > 0; b-- {
				hb, hp := cfg.G.Hops(js[b], j), cfg.G.Hops(js[b-1], j)
				if hb < hp || (hb == hp && js[b] < js[b-1]) {
					js[b], js[b-1] = js[b-1], js[b]
				} else {
					break
				}
			}
		}
	}

	// Caches.
	var caches []*cache.Cache
	res := &Result{}
	if cfg.CacheGB != nil {
		if len(cfg.CacheGB) != n {
			return nil, fmt.Errorf("sim: %d cache capacities for %d offices", len(cfg.CacheGB), n)
		}
		caches = make([]*cache.Cache, n)
		for i := range caches {
			i := i
			caches[i] = cache.New(cfg.CachePolicy, cfg.CacheGB[i])
			caches[i].OnEvict = func(video int) {
				cachedAt[video].clear(i)
			}
		}
	}

	// Per-bin telemetry: fire one SimSlice per completed bin, with counter
	// fields reported as deltas against the previous bin so each slice
	// stands alone. Attached only for traced runs, so the untraced simulator
	// pays nothing beyond a nil check per bin crossing.
	if cfg.Recorder.Enabled() {
		scheme := cfg.Scheme
		if scheme == "" {
			scheme = "sim"
		}
		if len(cfg.LinkCapMbps) == cfg.G.NumLinks() {
			track.caps = cfg.LinkCapMbps
		}
		var prev Result
		prevEvict := 0
		track.onBin = func(bin int, startSec int64, peak, agg, gb, util float64) {
			evict := 0
			for _, c := range caches {
				evict += c.Stats().Evicted
			}
			reqD := res.Requests - prev.Requests
			remoteD := res.RemoteServed - prev.RemoteServed
			hit := 0.0
			if reqD > 0 {
				hit = float64(reqD-remoteD) / float64(reqD)
			}
			cfg.Recorder.RecordSimSlice(obs.SimSlice{
				Stream:       scheme,
				Bin:          bin,
				StartSec:     startSec,
				PeakMbps:     peak,
				MaxUtil:      util,
				AggMbps:      agg,
				GBHop:        gb,
				Requests:     reqD,
				PinnedHits:   res.PinnedHits - prev.PinnedHits,
				CacheHits:    res.CacheHits - prev.CacheHits,
				RemoteServed: remoteD,
				Evictions:    evict - prevEvict,
				HitRate:      hit,
			})
			prev = *res
			prevEvict = evict
		}
	}

	// nearest returns the closest office to j holding video v (pinned or
	// cached), or -1.
	nearest := func(j, v int) int {
		pa, ca := pinnedAt[v], cachedAt[v]
		for _, i := range order[j] {
			if pa.has(i) || ca.has(i) {
				return i
			}
		}
		return -1
	}

	var ends endHeap
	finishUntil := func(t int64) {
		for len(ends) > 0 && ends[0].time <= t {
			e := heap.Pop(&ends).(endEvent)
			track.advance(e.time)
			if e.src != e.dst {
				track.removeStream(cfg.G.Path(e.src, e.dst), e.rate)
			}
			for _, office := range e.release {
				if caches != nil {
					caches[office].Release(e.video)
				}
			}
		}
	}

	// applyUpdate swaps in a new placement, counting added copies.
	xdist := cfg.XDist
	applyUpdate(&cfg, nil, pinnedAt, numVideos, n, res, cfg.Lib) // no-op shape check
	nextUpdate := 0
	for _, r := range tr.Requests {
		t := r.Time
		for nextUpdate < len(cfg.Updates) && cfg.Updates[nextUpdate].AtSec <= t {
			u := &cfg.Updates[nextUpdate]
			applyUpdate(&cfg, u, pinnedAt, numVideos, n, res, cfg.Lib)
			xdist = u.XDist
			nextUpdate++
		}
		finishUntil(t)
		track.advance(t)
		j := int(r.VHO)
		v := int(r.Video)
		vid := &cfg.Lib.Videos[v]
		counted := t >= cfg.MetricsFromSec
		if counted {
			res.Requests++
		}

		var release []int
		serveFrom := -1
		local := false
		switch {
		case pinnedAt[v].has(j):
			// Pinned service bypasses the cache entirely.
			if counted {
				res.PinnedHits++
			}
			serveFrom, local = j, true
		case caches != nil && caches[j].Lookup(v):
			if counted {
				res.CacheHits++
			}
			serveFrom, local = j, true
			caches[j].Retain(v)
			release = append(release, j)
		}

		if !local {
			// Remote service.
			if xdist != nil {
				if fr, ok := xdist[workload.MakeJM(j, v)]; ok && len(fr) > 0 {
					u := rng.Float64()
					var acc float64
					for _, f := range fr {
						acc += f.V
						if u <= acc {
							serveFrom = int(f.I)
							break
						}
					}
					if serveFrom < 0 {
						serveFrom = int(fr[len(fr)-1].I)
					}
					if !pinnedAt[v].has(serveFrom) && !cachedAt[v].has(serveFrom) {
						serveFrom = -1 // stale distribution; fall through
					}
				}
			}
			if serveFrom < 0 && cfg.Origins != nil {
				serveFrom = cfg.Origins[j]
			}
			if serveFrom < 0 {
				serveFrom = nearest(j, v)
			}
			if serveFrom < 0 {
				return nil, fmt.Errorf("sim: video %d has no replica anywhere (request at office %d)", v, j)
			}
			if serveFrom == j {
				// Replica appeared locally (e.g. cached but Lookup raced a
				// pin-less config); serve locally.
				local = true
			} else {
				if counted {
					res.RemoteServed++
				}
				// Retain the remote cached copy while it streams.
				if caches != nil && !pinnedAt[v].has(serveFrom) && cachedAt[v].has(serveFrom) {
					caches[serveFrom].Retain(v)
					release = append(release, serveFrom)
				}
				// Cache the fetched video locally.
				if caches != nil && caches[j].CapGB() > 0 {
					if caches[j].Admit(v, vid.SizeGB) {
						cachedAt[v].set(j)
						caches[j].Retain(v)
						release = append(release, j)
					} else if counted {
						res.Uncachable++
					}
				}
			}
		}
		if local && serveFrom < 0 {
			serveFrom = j
		}

		endT := t + vid.DurationSec
		if serveFrom != j {
			track.addStream(cfg.G.Path(serveFrom, j), vid.RateMbps)
		}
		heap.Push(&ends, endEvent{time: endT, src: serveFrom, dst: j, video: v, rate: vid.RateMbps, release: release})
	}
	finishUntil(horizon)
	track.advance(horizon)

	res.BinPeakMbps = track.binPeak
	res.BinAggMbps = track.binAgg
	res.BinGBHop = track.binGB
	firstBin := int(cfg.MetricsFromSec / BinSec)
	for b := range track.binPeak {
		if b < firstBin {
			continue
		}
		if track.binPeak[b] > res.MaxLinkMbps {
			res.MaxLinkMbps = track.binPeak[b]
		}
		if track.binAgg[b] > res.MaxAggMbps {
			res.MaxAggMbps = track.binAgg[b]
		}
		res.TotalGBHop += track.binGB[b]
	}
	if caches != nil {
		for _, c := range caches {
			res.Evictions += c.Stats().Evicted
		}
	}
	if res.Requests > 0 {
		localServed := res.Requests - res.RemoteServed
		res.LocalFrac = float64(localServed) / float64(res.Requests)
	}
	// Push buffered slice events out at run end so an interrupted caller
	// (SIGINT between scheme runs) still sees every completed bin.
	cfg.Recorder.Flush() //nolint:errcheck // sink errors surface from the caller's Close
	return res, nil
}

// applyUpdate swaps the pinned placement for u's (u == nil is a no-op used
// to keep the call shape uniform at start-up). Added copies are counted as
// migration cost; removed copies are dropped immediately. Cached content is
// untouched.
func applyUpdate(cfg *Config, u *Update, pinnedAt []bitset, numVideos, n int, res *Result, lib *catalog.Library) {
	if u == nil {
		return
	}
	newPinned := make([]bitset, numVideos)
	for v := range newPinned {
		newPinned[v] = newBitset(n)
	}
	for i, vids := range u.Pinned {
		for _, v := range vids {
			newPinned[v].set(i)
		}
	}
	for v := 0; v < numVideos; v++ {
		added := 0
		for w := range newPinned[v] {
			added += bits.OnesCount64(newPinned[v][w] &^ pinnedAt[v][w])
		}
		if added > 0 {
			res.MigratedVideos += added
			res.MigratedGB += float64(added) * lib.Videos[v].SizeGB
		}
		pinnedAt[v] = newPinned[v]
	}
	_ = cfg
}
