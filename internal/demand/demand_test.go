package demand

import (
	"math"
	"slices"
	"testing"

	"vodplace/internal/catalog"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

func testSetup(t *testing.T) (*topology.Graph, *catalog.Library, *workload.Trace, *Builder) {
	t.Helper()
	g := topology.Random(6, 1.0, 3)
	lib := catalog.Generate(catalog.Config{NumVideos: 300, Weeks: 4, NumSeries: 2, BlockbustersPerWeek: 1}, 5)
	tr := workload.GenerateTrace(lib, workload.TraceConfig{
		Days: 28, NumVHOs: 6, RequestsPerVideoPerDay: 3,
	}, 7)
	disk := make([]float64, 6)
	for i := range disk {
		disk[i] = lib.TotalSizeGB() * 2 / 6
	}
	caps := make([]float64, g.NumLinks())
	for l := range caps {
		caps[l] = 1000
	}
	b := &Builder{G: g, Lib: lib, DiskGB: disk, LinkCapMbps: caps}
	return g, lib, tr, b
}

func TestInstanceBasics(t *testing.T) {
	_, lib, tr, b := testSetup(t)
	inst, err := b.Instance(tr, 14)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Slices != 2 {
		t.Errorf("slices = %d, want 2", inst.Slices)
	}
	// Every video released before day 21 must be present.
	want := 0
	for _, v := range lib.Videos {
		if v.ReleaseDay < 21 {
			want++
		}
	}
	if got := inst.NumVideos(); got != want {
		t.Errorf("instance has %d videos, want %d", got, want)
	}
	// Demand entries must reference the trace's offices and carry positive
	// aggregate demand for popular videos.
	anyDemand := false
	for _, d := range inst.Demands {
		for k, j := range d.Js {
			if j < 0 || int(j) >= 6 {
				t.Fatalf("video %d: bad office %d", d.Video, j)
			}
			if d.Agg[k] > 0 {
				anyDemand = true
			}
		}
	}
	if !anyDemand {
		t.Error("no demand found in instance")
	}
}

func TestHistoryMatchesTraceCounts(t *testing.T) {
	_, _, tr, b := testSetup(t)
	inst, err := b.Instance(tr, 14)
	if err != nil {
		t.Fatal(err)
	}
	// For a video released on day 0, Agg must equal the raw counts over
	// days [7, 14).
	counts := tr.AggregateCounts(7*workload.SecondsPerDay, 14*workload.SecondsPerDay)
	for _, d := range inst.Demands {
		if b.Lib.Videos[d.Video].ReleaseDay != 0 {
			continue
		}
		for k, j := range d.Js {
			want := float64(counts[workload.MakeJM(int(j), d.Video)])
			if math.Abs(d.Agg[k]-want) > 1e-9 {
				t.Fatalf("video %d office %d: agg %g, want %g", d.Video, j, d.Agg[k], want)
			}
		}
		return // one confirmed video suffices
	}
	t.Fatal("no day-0 video found")
}

func TestSeriesEstimation(t *testing.T) {
	_, lib, tr, b := testSetup(t)
	// Find an episode released on day 14 (placement day): it has no history,
	// so its demand must be copied from the previous episode.
	inst, err := b.Instance(tr, 14)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range inst.Demands {
		v := lib.Videos[d.Video]
		if v.Series == catalog.NoSeries || v.ReleaseDay != 14 {
			continue
		}
		found = true
		if len(d.Js) == 0 {
			t.Errorf("new episode %d (series %d ep %d) has no estimated demand", d.Video, v.Series, v.Episode)
			continue
		}
		// The estimate must equal the previous episode's history counts.
		prev, ok := lib.PreviousEpisode(v)
		if !ok {
			t.Fatal("missing previous episode")
		}
		counts := tr.AggregateCounts(7*workload.SecondsPerDay, 14*workload.SecondsPerDay)
		for k, j := range d.Js {
			want := float64(counts[workload.MakeJM(int(j), prev.ID)])
			if math.Abs(d.Agg[k]-want) > 1e-9 {
				t.Errorf("episode estimate mismatch at office %d: %g vs %g", j, d.Agg[k], want)
			}
		}
	}
	if !found {
		t.Skip("no episode released exactly on day 14 in this library")
	}
}

func TestNoneMethodSkipsNewVideos(t *testing.T) {
	_, lib, tr, b := testSetup(t)
	b.Cfg.Method = None
	inst, err := b.Instance(tr, 14)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range inst.Demands {
		v := lib.Videos[d.Video]
		if v.ReleaseDay >= 14 && len(d.Js) != 0 {
			t.Errorf("method None estimated demand for new video %d", d.Video)
		}
	}
}

func TestPerfectUsesFuture(t *testing.T) {
	_, _, tr, b := testSetup(t)
	b.Cfg.Method = Perfect
	inst, err := b.Instance(tr, 14)
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.AggregateCounts(14*workload.SecondsPerDay, 21*workload.SecondsPerDay)
	checked := 0
	for _, d := range inst.Demands {
		for k, j := range d.Js {
			want := float64(counts[workload.MakeJM(int(j), d.Video)])
			if math.Abs(d.Agg[k]-want) > 1e-9 {
				t.Fatalf("video %d office %d: agg %g, want future count %g", d.Video, j, d.Agg[k], want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestPartialHistoryScaling(t *testing.T) {
	_, lib, tr, b := testSetup(t)
	inst, err := b.Instance(tr, 14)
	if err != nil {
		t.Fatal(err)
	}
	// A video released on day 10 has 4 observed days; its counts must be
	// scaled by 7/4.
	counts := tr.AggregateCounts(7*workload.SecondsPerDay, 14*workload.SecondsPerDay)
	for _, d := range inst.Demands {
		v := lib.Videos[d.Video]
		if v.ReleaseDay != 10 {
			continue
		}
		for k, j := range d.Js {
			raw := float64(counts[workload.MakeJM(int(j), d.Video)])
			want := raw * 7.0 / 4.0
			if math.Abs(d.Agg[k]-want) > 1e-9 {
				t.Fatalf("video %d (day 10): agg %g, want scaled %g", d.Video, d.Agg[k], want)
			}
		}
		return
	}
	t.Skip("no day-10 release in this library")
}

func TestConcurrencyPopulated(t *testing.T) {
	_, _, tr, b := testSetup(t)
	inst, err := b.Instance(tr, 14)
	if err != nil {
		t.Fatal(err)
	}
	// Built demands carry only the CSR view (dense Conc staging is dropped
	// at construction), so sum concurrency through ConcNZ.
	var totalConc float64
	for _, d := range inst.Demands {
		for k := range d.Js {
			_, fv := d.ConcNZ(k)
			for _, f := range fv {
				totalConc += f
			}
		}
	}
	if totalConc == 0 {
		t.Error("no concurrency recorded in any peak window")
	}
}

func TestInstanceErrors(t *testing.T) {
	_, _, tr, b := testSetup(t)
	if _, err := b.Instance(nil, 14); err == nil {
		t.Error("nil trace accepted")
	}
	// Disk too small for the library must fail instance validation.
	small := make([]float64, len(b.DiskGB))
	for i := range small {
		small[i] = 0.01
	}
	b2 := *b
	b2.DiskGB = small
	if _, err := b2.Instance(tr, 14); err == nil {
		t.Error("undersized disk accepted")
	}
}

func TestMethodString(t *testing.T) {
	if History.String() != "history" || Perfect.String() != "perfect" || None.String() != "no-estimate" {
		t.Error("bad method names")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should format")
	}
}

// TestBlockbusterTieGoesToLowestID builds an instance whose two movies tie
// for most requested in the history window, at different offices. The
// blockbuster released on the placement day must copy the lower ID's row on
// every build, whatever order the builder's maps iterate in.
func TestBlockbusterTieGoesToLowestID(t *testing.T) {
	g := topology.Random(4, 1.0, 3)
	movie := func(id int, class catalog.Class, releaseDay int, blockbuster bool) catalog.Video {
		return catalog.Video{
			ID: id, Class: class, SizeGB: class.SizeGB(), DurationSec: class.DurationSec(),
			RateMbps: catalog.StandardRateMbps, Series: catalog.NoSeries,
			ReleaseDay: releaseDay, Blockbuster: blockbuster,
		}
	}
	lib := &catalog.Library{Videos: []catalog.Video{
		movie(0, catalog.Movie1h, 0, false),
		movie(1, catalog.Movie2h, 0, false),
		movie(2, catalog.Movie1h, 7, true),
	}}
	// Video 0: three requests at office 1 on day 2. Video 1: three at
	// office 3 on day 4. Equal totals, disjoint rows.
	var reqs []workload.Request
	for r := int64(0); r < 3; r++ {
		reqs = append(reqs, workload.Request{Time: 2*workload.SecondsPerDay + 3600*r, VHO: 1, Video: 0})
	}
	for r := int64(0); r < 3; r++ {
		reqs = append(reqs, workload.Request{Time: 4*workload.SecondsPerDay + 3600*r, VHO: 3, Video: 1})
	}
	tr := &workload.Trace{Requests: reqs, Days: 14, NumVHOs: 4, Lib: lib}
	disk := []float64{10, 10, 10, 10}
	caps := make([]float64, g.NumLinks())
	for l := range caps {
		caps[l] = 1000
	}
	b := &Builder{G: g, Lib: lib, DiskGB: disk, LinkCapMbps: caps}

	for build := 0; build < 20; build++ {
		inst, err := b.Instance(tr, 7)
		if err != nil {
			t.Fatal(err)
		}
		src, got := inst.Demands[0], inst.Demands[2]
		if len(src.Js) == 0 || !slices.Equal(got.Js, src.Js) || !slices.Equal(got.Agg, src.Agg) {
			t.Fatalf("build %d: blockbuster row Js=%v Agg=%v, want video 0's Js=%v Agg=%v",
				build, got.Js, got.Agg, src.Js, src.Agg)
		}
	}
}
