package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vodplace/internal/catalog"
)

func testLibrary(n, weeks int) *catalog.Library {
	return catalog.Generate(catalog.Config{NumVideos: n, Weeks: weeks, NumSeries: 2}, 11)
}

func smallTrace(t *testing.T) *Trace {
	t.Helper()
	lib := testLibrary(200, 2)
	return GenerateTrace(lib, TraceConfig{
		Days:                   14,
		NumVHOs:                8,
		RequestsPerVideoPerDay: 2,
	}, 5)
}

func TestPopulationsNormalized(t *testing.T) {
	for _, n := range []int{5, 23, 55} {
		pops := Populations(n, 1)
		if len(pops) != n {
			t.Fatalf("n=%d: got %d weights", n, len(pops))
		}
		var sum float64
		for _, p := range pops {
			if p <= 0 {
				t.Errorf("n=%d: non-positive weight %g", n, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("n=%d: weights sum to %g, want 1", n, sum)
		}
	}
}

func TestPopulationsHeterogeneous(t *testing.T) {
	pops := Populations(55, 3)
	classes := SizeClasses(55)
	var largeSum, smallSum float64
	var nLarge, nSmall int
	for i, c := range classes {
		switch c {
		case LargeVHO:
			largeSum += pops[i]
			nLarge++
		case SmallVHO:
			smallSum += pops[i]
			nSmall++
		}
	}
	if nLarge != 12 {
		t.Errorf("large offices = %d, want 12", nLarge)
	}
	if nSmall != 24 {
		t.Errorf("small offices = %d, want 24", nSmall)
	}
	if largeSum/float64(nLarge) <= 2*smallSum/float64(nSmall) {
		t.Errorf("large offices should have ~4x small weight: large avg %g, small avg %g",
			largeSum/float64(nLarge), smallSum/float64(nSmall))
	}
}

func TestPopularityLongTail(t *testing.T) {
	lib := testLibrary(1000, 1)
	m := NewPopularityModel(lib, 1)
	weights := make([]float64, lib.Len())
	var total float64
	for v := range weights {
		weights[v] = m.Base(v)
		total += weights[v]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(weights)))
	var top10 float64
	for _, w := range weights[:100] { // top 10%
		top10 += w
	}
	frac := top10 / total
	// Zipf-0.8 with cutoff: the top 10% should carry a large but not
	// overwhelming share — the paper stresses that medium-popular videos
	// still matter.
	if frac < 0.30 || frac > 0.95 {
		t.Errorf("top-10%% share = %g, want a skewed but long-tailed split", frac)
	}
}

func TestRecencyBoostShape(t *testing.T) {
	if recencyBoost(-1) != 0 {
		t.Error("unreleased video should have zero boost")
	}
	prev := recencyBoost(0)
	for age := 1; age < 20; age++ {
		b := recencyBoost(age)
		if b > prev {
			t.Errorf("boost should be non-increasing: boost(%d)=%g > boost(%d)=%g", age, b, age-1, prev)
		}
		prev = b
	}
	if recencyBoost(30) != 1 {
		t.Error("old videos should have boost 1")
	}
}

func TestSeriesEpisodesSimilarPopularity(t *testing.T) {
	lib := testLibrary(2000, 4)
	m := NewPopularityModel(lib, 2)
	eps := lib.SeriesEpisodes(0)
	if len(eps) < 3 {
		t.Fatal("need several episodes")
	}
	var lo, hi float64 = math.Inf(1), 0
	for _, e := range eps {
		b := m.Base(e.ID)
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	if hi/lo > 2.0 {
		t.Errorf("episode popularity spread %g too large; Fig 4 expects similar demand", hi/lo)
	}
}

func TestGenerateTraceBasics(t *testing.T) {
	tr := smallTrace(t)
	if len(tr.Requests) == 0 {
		t.Fatal("empty trace")
	}
	// Sorted by time; valid fields.
	horizon := int64(tr.Days) * SecondsPerDay
	for i, r := range tr.Requests {
		if i > 0 && r.Time < tr.Requests[i-1].Time {
			t.Fatalf("requests not sorted at %d", i)
		}
		if r.Time < 0 || r.Time >= horizon {
			t.Fatalf("request %d time %d outside horizon", i, r.Time)
		}
		if r.VHO < 0 || int(r.VHO) >= tr.NumVHOs {
			t.Fatalf("request %d has bad VHO %d", i, r.VHO)
		}
		if r.Video < 0 || int(r.Video) >= tr.Lib.Len() {
			t.Fatalf("request %d has bad video %d", i, r.Video)
		}
		// No requests before release.
		rel := int64(tr.Lib.Videos[r.Video].ReleaseDay) * SecondsPerDay
		if r.Time < rel {
			t.Fatalf("request %d at %d precedes release %d of video %d", i, r.Time, rel, r.Video)
		}
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	lib := testLibrary(100, 1)
	cfg := TraceConfig{Days: 3, NumVHOs: 4, RequestsPerVideoPerDay: 3}
	a := GenerateTrace(lib, cfg, 9)
	b := GenerateTrace(lib, cfg, 9)
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestTraceWeekendPeak(t *testing.T) {
	tr := smallTrace(t)
	perDay := make([]int, tr.Days)
	for _, r := range tr.Requests {
		perDay[r.Time/SecondsPerDay]++
	}
	// Friday (day 4) and Saturday (day 5) should beat Monday-Thursday of the
	// same week on average.
	weekend := float64(perDay[4]+perDay[5]) / 2
	weekday := float64(perDay[0]+perDay[1]+perDay[2]+perDay[3]) / 4
	if weekend <= weekday {
		t.Errorf("weekend volume %g should exceed weekday %g", weekend, weekday)
	}
}

func TestTraceDiurnal(t *testing.T) {
	tr := smallTrace(t)
	var evening, night int
	for _, r := range tr.Requests {
		h := (r.Time % SecondsPerDay) / 3600
		if h >= 19 && h <= 21 {
			evening++
		}
		if h >= 2 && h <= 4 {
			night++
		}
	}
	if evening <= night {
		t.Errorf("evening volume %d should exceed overnight %d", evening, night)
	}
}

func TestTracePopulationSkew(t *testing.T) {
	lib := testLibrary(150, 1)
	pops := []float64{0.7, 0.1, 0.1, 0.1}
	tr := GenerateTrace(lib, TraceConfig{Days: 5, NumVHOs: 4, Populations: pops, RequestsPerVideoPerDay: 4}, 3)
	counts := make([]int, 4)
	for _, r := range tr.Requests {
		counts[r.VHO]++
	}
	if counts[0] <= 3*counts[1] {
		t.Errorf("VHO 0 with 7x weight got %d vs %d requests", counts[0], counts[1])
	}
}

func TestFlashCrowds(t *testing.T) {
	lib := testLibrary(300, 1)
	tr := GenerateTrace(lib, TraceConfig{Days: 7, NumVHOs: 4, FlashCrowds: 2, RequestsPerVideoPerDay: 2}, 6)
	if len(tr.FlashEvents) != 2 {
		t.Fatalf("flash events = %d, want 2", len(tr.FlashEvents))
	}
	ev := tr.FlashEvents[0]
	if lib.Videos[ev.Video].ReleaseDay > ev.Day {
		t.Skip("flash event landed on unreleased video; no observable spike")
	}
	// The flash video should be requested far more on its flash day than on
	// a typical other day.
	flashDay, otherDays := 0, 0
	for _, r := range tr.Requests {
		if int(r.Video) != ev.Video {
			continue
		}
		if int(r.Time/SecondsPerDay) == ev.Day {
			flashDay++
		} else {
			otherDays++
		}
	}
	avgOther := float64(otherDays) / float64(tr.Days-1)
	if float64(flashDay) < 3*avgOther {
		t.Errorf("flash day count %d not a clear spike over avg %g", flashDay, avgOther)
	}
}

func TestSliceAndDaySlice(t *testing.T) {
	tr := smallTrace(t)
	sub := tr.DaySlice(3, 5)
	for _, r := range sub.Requests {
		d := r.Time / SecondsPerDay
		if d < 3 || d >= 5 {
			t.Fatalf("DaySlice(3,5) contains request on day %d", d)
		}
	}
	whole := tr.Slice(0, int64(tr.Days)*SecondsPerDay)
	if len(whole.Requests) != len(tr.Requests) {
		t.Errorf("full slice has %d requests, want %d", len(whole.Requests), len(tr.Requests))
	}
}

func TestRequestCountsAndAggregate(t *testing.T) {
	tr := smallTrace(t)
	horizon := int64(tr.Days) * SecondsPerDay
	counts := tr.RequestCounts(0, horizon)
	agg := tr.AggregateCounts(0, horizon)
	var totalSparse, totalAgg int
	for j := range counts {
		for _, c := range counts[j] {
			totalSparse += c
		}
	}
	for _, c := range agg {
		totalAgg += c
	}
	if totalSparse != len(tr.Requests) || totalAgg != len(tr.Requests) {
		t.Errorf("count totals %d/%d, want %d", totalSparse, totalAgg, len(tr.Requests))
	}
	// Cross-check one pair.
	for key, c := range agg {
		j, m := key.Split()
		if counts[j][m] != c {
			t.Fatalf("mismatch at (%d,%d): %d vs %d", j, m, counts[j][m], c)
		}
		break
	}
}

func TestJMRoundTrip(t *testing.T) {
	f := func(j uint16, m int32) bool {
		if m < 0 {
			m = -m
		}
		key := MakeJM(int(j), int(m))
		gj, gm := key.Split()
		return gj == int(j) && gm == int(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkingSets(t *testing.T) {
	tr := smallTrace(t)
	ws := tr.WorkingSetSizes(4) // Friday
	if len(ws) != tr.NumVHOs {
		t.Fatalf("working set entries = %d, want %d", len(ws), tr.NumVHOs)
	}
	any := false
	for _, w := range ws {
		if w > 0 {
			any = true
		}
		if w > tr.Lib.Len() {
			t.Errorf("working set %d exceeds library size", w)
		}
	}
	if !any {
		t.Error("all working sets empty on a Friday")
	}
	gb := tr.WorkingSetGB(4)
	for j := range gb {
		if (gb[j] > 0) != (ws[j] > 0) {
			t.Errorf("GB and count disagree at office %d", j)
		}
	}
}

// TestWorkingSetGBDeterministic holds WorkingSetGB to the same bits on every
// call: each office's sizes are summed in one order, not in the order a map
// happens to yield its keys.
func TestWorkingSetGBDeterministic(t *testing.T) {
	tr := GenerateTrace(testLibrary(1200, 2), TraceConfig{Days: 14, NumVHOs: 12, RequestsPerVideoPerDay: 4}, 5)
	want := tr.WorkingSetGB(11)
	for call := 0; call < 20; call++ {
		for j, gb := range tr.WorkingSetGB(11) {
			if math.Float64bits(gb) != math.Float64bits(want[j]) {
				t.Fatalf("call %d, office %d: %v, first call %v", call, j, gb, want[j])
			}
		}
	}
}

func TestTotalConcurrencyCurve(t *testing.T) {
	lib := testLibrary(50, 1)
	tr := &Trace{Days: 1, NumVHOs: 1, Lib: lib}
	// One request for video 0 at t=1000, active for its full duration.
	tr.Requests = []Request{{Time: 1000, VHO: 0, Video: 0}}
	end := 1000 + lib.Videos[0].DurationSec
	curve := tr.TotalConcurrencyCurve(100)
	for i, c := range curve {
		from, to := int64(i)*100, int64(i+1)*100
		active := from < end && to > 1000
		want := 0
		if active {
			want = 1
		}
		if c != want {
			t.Errorf("bucket %d [%d,%d): concurrency %d, want %d", i, from, to, c, want)
		}
	}
}

func TestPeakConcurrency(t *testing.T) {
	lib := testLibrary(50, 1)
	tr := &Trace{Days: 1, NumVHOs: 2, Lib: lib}
	// Two overlapping streams of video 3 at office 1, one disjoint.
	tr.Requests = []Request{
		{Time: 0, VHO: 1, Video: 3},
		{Time: 100, VHO: 1, Video: 3},
		{Time: 10000, VHO: 1, Video: 3},
	}
	fjm := tr.PeakConcurrency(0, SecondsPerDay)
	if got := fjm[MakeJM(1, 3)]; got != 2 {
		t.Errorf("peak concurrency = %d, want 2", got)
	}
	// Window excluding the overlap sees only one.
	fjm = tr.PeakConcurrency(9000, 20000)
	if got := fjm[MakeJM(1, 3)]; got != 1 {
		t.Errorf("peak concurrency in late window = %d, want 1", got)
	}
}

func TestPeakConcurrencyMatchesCurve(t *testing.T) {
	tr := smallTrace(t)
	// Sum of per-(j,m) peaks must be >= the global curve peak (peaks need
	// not align in time, so >= rather than ==).
	curve := tr.TotalConcurrencyCurve(60)
	peak := 0
	for _, c := range curve {
		if c > peak {
			peak = c
		}
	}
	fjm := tr.PeakConcurrency(0, int64(tr.Days)*SecondsPerDay)
	sum := 0
	for _, c := range fjm {
		sum += c
	}
	if sum < peak {
		t.Errorf("sum of pair peaks %d < global peak %d", sum, peak)
	}
}

func TestSimilarityAtPeakWindows(t *testing.T) {
	tr := smallTrace(t)
	simDay := tr.SimilarityAtPeak(SecondsPerDay)
	simHour := tr.SimilarityAtPeak(3600)
	if len(simDay) != tr.NumVHOs || len(simHour) != tr.NumVHOs {
		t.Fatal("bad lengths")
	}
	avg := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// Fig 3: larger windows look more similar than small ones.
	if avg(simDay) <= avg(simHour) {
		t.Errorf("day-window similarity %g should exceed hour-window %g", avg(simDay), avg(simHour))
	}
	for j, s := range simDay {
		if s < 0 || s > 1+1e-9 {
			t.Errorf("similarity[%d] = %g outside [0,1]", j, s)
		}
	}
}

func TestSeriesDailyCounts(t *testing.T) {
	lib := testLibrary(400, 3)
	tr := GenerateTrace(lib, TraceConfig{Days: 21, NumVHOs: 6, RequestsPerVideoPerDay: 2}, 8)
	counts := tr.SeriesDailyCounts(0)
	if len(counts) == 0 {
		t.Fatal("no episodes observed")
	}
	eps := lib.SeriesEpisodes(0)
	for _, e := range eps[1:] { // episodes released during horizon
		daily, ok := counts[e.Episode]
		if !ok {
			continue
		}
		// No requests before release.
		for d := 0; d < e.ReleaseDay && d < len(daily); d++ {
			if daily[d] != 0 {
				t.Errorf("episode %d requested on day %d before release day %d", e.Episode, d, e.ReleaseDay)
			}
		}
		// Release-day demand should be a spike relative to two weeks later.
		if e.ReleaseDay+14 < tr.Days && daily[e.ReleaseDay] > 0 &&
			daily[e.ReleaseDay] < daily[e.ReleaseDay+13] {
			t.Logf("episode %d release-day count %d below later count %d (noisy, informational)",
				e.Episode, daily[e.ReleaseDay], daily[e.ReleaseDay+13])
		}
	}
}

func TestTopPeakWindows(t *testing.T) {
	tr := smallTrace(t)
	wins := tr.TopPeakWindows(3600, 2)
	if len(wins) != 2 {
		t.Fatalf("got %d windows, want 2", len(wins))
	}
	if wins[0] == wins[1] {
		t.Error("peak windows must be distinct")
	}
	for _, w := range wins {
		if w%3600 != 0 {
			t.Errorf("window start %d not aligned", w)
		}
		// Peak windows should be in an evening (hours 17-23) given the
		// diurnal curve.
		h := (w % SecondsPerDay) / 3600
		if h < 15 {
			t.Errorf("peak window at hour %d; expected evening", h)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lambda := range []float64{0.5, 5, 100} {
		n := 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, lambda))
		}
		mean := sum / float64(n)
		if math.Abs(mean-lambda) > 0.05*lambda+0.1 {
			t.Errorf("poisson(%g) sample mean %g", lambda, mean)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("nonpositive lambda must yield 0")
	}
}

func TestPrefMultiplierRange(t *testing.T) {
	for vho := 0; vho < 10; vho++ {
		for video := 0; video < 100; video++ {
			m := prefMultiplier(vho, video)
			if m < 0.5-1e-9 || m > 2+1e-9 {
				t.Fatalf("prefMultiplier(%d,%d) = %g outside [0.5,2]", vho, video, m)
			}
		}
	}
	// Deterministic.
	if prefMultiplier(3, 7) != prefMultiplier(3, 7) {
		t.Error("prefMultiplier not deterministic")
	}
}
