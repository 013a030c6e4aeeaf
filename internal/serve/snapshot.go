package serve

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"vodplace/internal/mip"
)

// Snapshot is one immutable view of the data plane: a placement, the
// instance it was solved on, and each video's open office set, from which
// "which office serves video m for office j" is answered by a scan of that
// set against the cost matrix. A snapshot is never mutated after
// construction; the server swaps whole snapshots through an atomic pointer,
// so readers see either the old or the new placement in full — never a torn
// mix.
type Snapshot struct {
	// Version is the monotone snapshot sequence number; the initial
	// placement is version 1 and every audit-approved re-solve increments
	// it by one.
	Version uint64
	// Inst and Sol are the solved placement this snapshot serves. Both are
	// treated as immutable from the moment the snapshot is built.
	Inst *mip.Instance
	Sol  *mip.Solution
	// Certified reports that the placement passed the independent
	// certificate auditor (internal/verify) before it was swapped in.
	Certified bool
	// BuiltAt is the wall-clock construction time; /status and the
	// snapshot-age gauge report staleness relative to it.
	BuiltAt time.Time

	// vidIdx[id] maps a library video ID to its instance index, -1 when the
	// video is not part of this placement. Flat so the hot path is one
	// bounds check and one load, no map hashing.
	vidIdx []int32
	n      int

	// openOff/openIdx record each video's thresholded open set (the
	// y ≥ mip.OpenY offices, in solution order) in CSR form: video vi's open
	// offices are openIdx[openOff[vi]:openOff[vi+1]]. A route is a pure
	// function of this set and the instance's cost matrix, whose identity
	// fields a demand patch never writes, so the set is all a snapshot keeps
	// of its placement — never Sol, which the next attempt may alias.
	openOff []int32
	openIdx []int32
}

// buildSnapshot validates (inst, sol) and records each video's open set.
// It is deliberately defensive — the fuzz target feeds it arbitrary
// hand-built placements — so malformed input yields an error, never a
// panic or a mis-route: out-of-range open offices are rejected, duplicate
// and unsorted open lists are tolerated, and videos without any open copy
// are answered unreachable rather than routed to a default office.
func buildSnapshot(inst *mip.Instance, sol *mip.Solution, version uint64, certified bool) (*Snapshot, error) {
	s, _, err := buildSnapshotFrom(nil, inst, sol, version, certified)
	return s, err
}

// buildSnapshotFrom is buildSnapshot with a predecessor: when prev is a
// snapshot built on the same instance value (pointer identity — the
// resolver's patched live instance), its id table is shared and each video's
// open set is compared with prev's. Returns the snapshot and the number of
// videos whose open set changed — the videos whose routes may have moved
// (== the video count without a predecessor).
func buildSnapshotFrom(prev *Snapshot, inst *mip.Instance, sol *mip.Solution, version uint64, certified bool) (*Snapshot, int64, error) {
	if inst == nil || sol == nil {
		return nil, 0, fmt.Errorf("serve: nil instance or solution")
	}
	if sol.Inst != inst {
		return nil, 0, fmt.Errorf("serve: solution belongs to a different instance")
	}
	if len(sol.Videos) != len(inst.Demands) {
		return nil, 0, fmt.Errorf("serve: %d video placements for %d demands", len(sol.Videos), len(inst.Demands))
	}
	n := inst.NumVHOs()
	nv := len(inst.Demands)
	incr := prev != nil && prev.Inst == inst && prev.n == n && len(prev.openOff) == nv+1

	entries := 0
	for vi := range sol.Videos {
		entries += len(sol.Videos[vi].Open)
	}
	s := &Snapshot{
		Version:   version,
		Inst:      inst,
		Sol:       sol,
		Certified: certified,
		BuiltAt:   time.Now(),
		n:         n,
		openOff:   make([]int32, nv+1),
		openIdx:   make([]int32, 0, entries),
	}
	if incr {
		// Library ids are immutable under a patch, so the previous table —
		// validated when prev was built — is shared as-is.
		s.vidIdx = prev.vidIdx
	} else {
		maxID := -1
		for vi := range inst.Demands {
			id := inst.Demands[vi].Video
			if id < 0 {
				return nil, 0, fmt.Errorf("serve: video index %d has negative library id %d", vi, id)
			}
			if id > maxID {
				maxID = id
			}
		}
		s.vidIdx = make([]int32, maxID+1)
		for i := range s.vidIdx {
			s.vidIdx[i] = -1
		}
		for vi := range inst.Demands {
			id := inst.Demands[vi].Video
			if s.vidIdx[id] != -1 {
				return nil, 0, fmt.Errorf("serve: duplicate library id %d", id)
			}
			s.vidIdx[id] = int32(vi)
		}
	}

	var rebuilt int64
	for vi := range sol.Videos {
		at := len(s.openIdx)
		for _, f := range sol.Videos[vi].Open {
			if f.V < mip.OpenY {
				continue
			}
			if int(f.I) < 0 || int(f.I) >= n {
				return nil, 0, fmt.Errorf("serve: video %d open office %d out of range [0,%d)", vi, f.I, n)
			}
			s.openIdx = append(s.openIdx, f.I)
		}
		s.openOff[vi+1] = int32(len(s.openIdx))
		// Open sets come out ascending, so equal lists are equal sets; an
		// order-only difference would count one video too many.
		if !incr || !slices.Equal(s.openIdx[at:], prev.open(int32(vi))) {
			rebuilt++
		}
	}
	return s, rebuilt, nil
}

// open returns instance video vi's open offices.
func (s *Snapshot) open(vi int32) []int32 {
	return s.openIdx[s.openOff[vi]:s.openOff[vi+1]]
}

// serving returns the office serving instance video vi at office vho: the
// open copy with the minimal transfer cost c_ij, the lowest office on ties
// (matching the from-scratch recomputation the tests do), or -1 when the
// video has no open copy.
func (s *Snapshot) serving(vi int32, vho int) int32 {
	best := int32(-1)
	var bestCost float64
	for _, i := range s.open(vi) {
		if c := s.Inst.Cost(int(i), vho); best < 0 || c < bestCost || (c == bestCost && i < best) {
			best, bestCost = i, c
		}
	}
	return best
}

// routeDelta counts the (video, office) routing answers that differ between
// two snapshots, matching videos by library id so re-solves over a changed
// catalog compare sensibly: a video present on only one side contributes
// its every destination, matched videos their per-destination differences.
// On one instance a video whose open set is unchanged answers every office
// as before, so only the videos whose set changed are scanned. This is the
// churn number a swap event reports.
func routeDelta(old, cur *Snapshot) int64 {
	if old == nil {
		return int64(len(cur.openOff)-1) * int64(cur.n)
	}
	sameCosts := old.Inst == cur.Inst
	var d int64
	for id, vi := range cur.vidIdx {
		if vi < 0 {
			continue
		}
		var ovi int32 = -1
		if id < len(old.vidIdx) {
			ovi = old.vidIdx[id]
		}
		if ovi < 0 || old.n != cur.n {
			d += int64(cur.n)
			continue
		}
		if sameCosts && slices.Equal(cur.open(vi), old.open(ovi)) {
			continue
		}
		for j := 0; j < cur.n; j++ {
			if cur.serving(vi, j) != old.serving(ovi, j) {
				d++
			}
		}
	}
	for id := range old.vidIdx {
		if old.vidIdx[id] < 0 {
			continue
		}
		if id >= len(cur.vidIdx) || cur.vidIdx[id] < 0 {
			d += int64(old.n)
		}
	}
	return d
}

// Route returns the serving office for library video id at office vho.
// ok is false when the video is not in this placement, vho is out of range,
// or the video has no open copy. It performs no allocations.
func (s *Snapshot) Route(videoID, vho int) (office int, ok bool) {
	if vho < 0 || vho >= s.n || videoID < 0 || videoID >= len(s.vidIdx) {
		return -1, false
	}
	vi := s.vidIdx[videoID]
	if vi < 0 {
		return -1, false
	}
	i := s.serving(vi, vho)
	if i < 0 {
		return -1, false
	}
	return int(i), true
}

// NumVideos returns the number of videos in this placement.
func (s *Snapshot) NumVideos() int { return len(s.Inst.Demands) }

// NumVHOs returns the number of offices.
func (s *Snapshot) NumVHOs() int { return s.n }

// Route response statuses, shared by AppendRoute and the HTTP handler.
const (
	routeOK          = 200
	routeNotFound    = 404
	routeUnreachable = 404
)

// AppendRoute answers one /route lookup: it appends the JSON response body
// for (videoID, vho) to buf and returns the extended buffer plus the HTTP
// status code. This is the data-plane hot path — a version-stamped route
// answer is an id-table load, a scan of the video's open set against the
// cost matrix and a hand-rolled JSON encode into the caller's reused buffer,
// so the steady state allocates nothing (pinned by
// TestRouteZeroAllocations).
func (s *Snapshot) AppendRoute(buf []byte, videoID, vho int) ([]byte, int) {
	if vho < 0 || vho >= s.n {
		buf = append(buf, `{"error":"unknown vho"`...)
		buf = appendKV(buf, `,"vho":`, int64(vho))
		buf = appendKV(buf, `,"version":`, int64(s.Version))
		buf = append(buf, "}\n"...)
		return buf, routeNotFound
	}
	var vi int32 = -1
	if videoID >= 0 && videoID < len(s.vidIdx) {
		vi = s.vidIdx[videoID]
	}
	if vi < 0 {
		buf = append(buf, `{"error":"unknown video"`...)
		buf = appendKV(buf, `,"video":`, int64(videoID))
		buf = appendKV(buf, `,"version":`, int64(s.Version))
		buf = append(buf, "}\n"...)
		return buf, routeNotFound
	}
	i := s.serving(vi, vho)
	if i < 0 {
		buf = append(buf, `{"error":"unreachable"`...)
		buf = appendKV(buf, `,"video":`, int64(videoID))
		buf = appendKV(buf, `,"vho":`, int64(vho))
		buf = appendKV(buf, `,"version":`, int64(s.Version))
		buf = append(buf, "}\n"...)
		return buf, routeUnreachable
	}
	buf = append(buf, `{"video":`...)
	buf = strconv.AppendInt(buf, int64(videoID), 10)
	buf = appendKV(buf, `,"vho":`, int64(vho))
	buf = appendKV(buf, `,"serve":`, int64(i))
	buf = appendKV(buf, `,"hops":`, int64(s.Inst.Hops(int(i), vho)))
	buf = append(buf, `,"cost":`...)
	buf = strconv.AppendFloat(buf, s.Inst.Cost(int(i), vho), 'g', -1, 64)
	buf = appendKV(buf, `,"version":`, int64(s.Version))
	buf = append(buf, "}\n"...)
	return buf, routeOK
}

func appendKV(b []byte, prefix string, v int64) []byte {
	b = append(b, prefix...)
	return strconv.AppendInt(b, v, 10)
}

// parseRouteQuery extracts video= and vho= from a raw query string without
// allocating. Both parameters must appear exactly once with a plain decimal
// value; unknown parameters are ignored. Returns ok=false on any malformed
// input (the 400 contract).
func parseRouteQuery(q string) (video, vho int, ok bool) {
	video, vho = -1, -1
	haveVideo, haveVHO := false, false
	for len(q) > 0 {
		var kv string
		if i := indexByte(q, '&'); i >= 0 {
			kv, q = q[:i], q[i+1:]
		} else {
			kv, q = q, ""
		}
		eq := indexByte(kv, '=')
		if eq < 0 {
			return 0, 0, false
		}
		key, val := kv[:eq], kv[eq+1:]
		switch key {
		case "video":
			if haveVideo {
				return 0, 0, false
			}
			v, good := parseUint(val)
			if !good {
				return 0, 0, false
			}
			video, haveVideo = v, true
		case "vho":
			if haveVHO {
				return 0, 0, false
			}
			v, good := parseUint(val)
			if !good {
				return 0, 0, false
			}
			vho, haveVHO = v, true
		}
	}
	return video, vho, haveVideo && haveVHO
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// parseUint parses a plain decimal value in [0, 1e9); anything else —
// empty, signs, hex, percent-escapes, overflow — is malformed.
func parseUint(s string) (int, bool) {
	if len(s) == 0 || len(s) > 9 {
		return 0, false
	}
	v := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}
