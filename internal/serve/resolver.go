package serve

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"slices"
	"time"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/obs"
)

// resolveLoop is the control plane: it waits for demand to change and runs
// one audited re-solve per wakeup. The channel has capacity 1, so bursts of
// updates arriving during a solve coalesce into a single follow-up solve
// over the then-current state.
func (s *Server) resolveLoop(ctx context.Context) {
	defer close(s.done)
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.resolveCh:
		}
		if _, err := s.resolveOnce(ctx); err != nil && !errors.Is(err, context.Canceled) {
			s.logf("serve: resolve failed: %v", err)
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// kickResolve schedules a background re-solve (coalescing with any already
// pending).
func (s *Server) kickResolve() {
	select {
	case s.resolveCh <- struct{}{}:
	default:
	}
}

// durMS renders a duration as the float milliseconds the trace events and
// /status carry.
func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// solveOutcome copies what a solve says about itself into its done event:
// the one place /status's last_* fields and the trace's solver fields come
// from, for the initial solve and every re-solve alike.
func solveOutcome(done *obs.ServeResolve, res *epf.Result, videos int) {
	done.Passes = res.Passes
	done.LPMS, done.LBMS, done.RoundMS = durMS(res.Stats.LPTime), durMS(res.Stats.LBTime), durMS(res.Stats.RoundTime)
	done.PolishMS = durMS(res.Stats.PolishTime)
	done.Round, done.RoundRatio, done.RoundRef = res.Stats.RoundMode(), res.Stats.RoundRatio, res.Stats.RoundRef
	if videos > 0 {
		done.WarmFrac = float64(res.Stats.WarmVideos) / float64(videos)
		done.ResumedFrac = float64(res.Stats.ResumedVideos) / float64(videos)
	}
}

// resolveOnce brings the live instance up to date with the demand state,
// solves it (warm-started from the last swapped-in solve),
// audits the result, and — only if the audit passes and the solve converged
// — swaps a new snapshot in. It patches just the demand-dirty videos of the
// live instance in place (state.patchInstance) and the incremental snapshot
// build recomputes only the route rows whose open set changed, so both the
// instance refresh and the route-table build cost O(changed) instead of
// O(catalog) (DESIGN.md §15); a row the instance refuses fails the attempt
// and stays dirty. On any rejection the old snapshot keeps serving, the
// matching counter is incremented, and the reject reason is kept for
// /status; a cancellation (shutdown) discards the partial solve.
// The whole attempt is bracketed by serve_resolve start/done trace events
// (done carries the dirty count and rows rebuilt), and a swap additionally
// emits serve_swap with the route-table churn and delta economy. Returns the
// swapped-in snapshot, or nil when nothing was swapped.
func (s *Server) resolveOnce(ctx context.Context) (*Snapshot, error) {
	s.mu.Lock()
	if !s.dirty {
		s.mu.Unlock()
		return nil, nil
	}
	s.dirty = false
	dirty := s.state.drainDirty()
	catalog := len(s.state.rows)
	inst := s.live
	err := s.state.patchInstance(inst, dirty)
	if err != nil {
		// Should not happen — the state already validated these rows. The
		// refused row and those after it are dirty again (patchInstance),
		// so the next attempt retries them.
		s.dirty = true
	}
	warm := s.warm
	driftAtSolve := s.state.drift
	s.mu.Unlock()
	s.resolvesStarted.Add(1)
	if catalog > 0 {
		s.deltaGauge.Set(float64(len(dirty)) / float64(catalog))
	}

	cur := s.store.Load()
	rec := s.cfg.Recorder
	rec.RecordServeResolve(obs.ServeResolve{
		Phase: "start", Version: int64(cur.Version + 1), Trigger: "demand",
	})
	// done accumulates the attempt's outcome; every return path below emits
	// it exactly once — reject for the non-swap exits, the swap itself last.
	done := obs.ServeResolve{
		Phase: "done", Version: int64(cur.Version + 1), Trigger: "demand",
		Dirty: len(dirty),
	}
	reject := func(counter *expvar.Int, verdict, reason string) {
		counter.Add(1)
		done.Verdict, done.Reason = verdict, reason
		rec.RecordServeResolve(done)
		if reason != "" { // a shutdown discard is not a rejection
			s.mu.Lock()
			s.lastReject = reason
			s.mu.Unlock()
		}
	}
	if err != nil {
		reject(s.resolvesFailed, "failed", "demand patch failed: "+err.Error())
		return nil, fmt.Errorf("serve: patching demand: %w", err)
	}

	if s.cfg.UpdateWeight > 0 {
		inst.UpdateWeight = s.cfg.UpdateWeight
		inst.Origin = originsFromSnapshot(inst, cur)
	}

	opts := s.cfg.Solver
	opts.Recorder = s.cfg.Recorder
	opts.TraceStream = fmt.Sprintf("serve.v%d", cur.Version+1)
	opts.Warm = warm
	tSolve := time.Now()
	res, err := epf.SolveIntegerContext(ctx, inst, opts)
	done.SolveMS = durMS(time.Since(tSolve))
	if res != nil {
		solveOutcome(&done, res, len(inst.Demands))
		done.BoundCarried = warm != nil && slices.Equal(res.RowDuals, warm.RowDuals)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			reject(s.resolvesCancel, "cancelled", "")
			s.logf("serve: resolve discarded (shutdown) after %d passes", res.Passes)
			return nil, err
		}
		reject(s.resolvesFailed, "failed", "solve failed: "+err.Error())
		return nil, fmt.Errorf("serve: re-solve: %w", err)
	}

	// The swap gate: the data plane only ever serves certified placements.
	// An audit failure means the solver's claims were wrong — keep the old
	// snapshot and record the rejection. The server's auditor re-derives
	// only the certificate terms this attempt's inputs moved.
	tAudit := time.Now()
	rep := s.auditor.Audit(inst, res)
	done.AuditMS = durMS(time.Since(tAudit))
	done.CertReused = rep.CertReused
	if !rep.Ok() {
		reject(s.auditRejected, "audit_rejected", "audit: "+rep.Err().Error())
		s.logf("serve: resolve rejected by audit, keeping v%d: %v", cur.Version, rep.Err())
		return nil, nil
	}
	if !res.Converged {
		reject(s.unconverged, "unconverged", fmt.Sprintf("unconverged after %d passes", res.Passes))
		s.logf("serve: resolve did not converge (%d passes), keeping v%d", res.Passes, cur.Version)
		return nil, nil
	}

	tBuild := time.Now()
	snap, rebuilt, err := buildSnapshotFrom(cur, inst, res.Sol, cur.Version+1, true)
	if err != nil {
		reject(s.resolvesFailed, "failed", "snapshot build failed: "+err.Error())
		return nil, fmt.Errorf("serve: building snapshot: %w", err)
	}
	rdelta := routeDelta(cur, snap)
	done.Rebuilt = rebuilt
	done.Verdict = "swapped"
	// The snapshot and the last_* fields /status reports with it are
	// published under one lock, so a reader that sees the new version also
	// sees the solve that produced it.
	s.mu.Lock()
	s.store.Store(snap)
	done.BuildMS = durMS(time.Since(tBuild))
	s.warm = res.Warm
	s.lastSwapped, s.lastGap = done, res.Gap
	// The swap covered the demand mass captured at solve start; whatever
	// arrived since stays counted as drift against the new snapshot.
	s.state.drift -= driftAtSolve
	if s.state.drift < 0 {
		s.state.drift = 0
	}
	s.mu.Unlock()
	s.resolvesSwapped.Add(1)
	rec.RecordServeSwap(obs.ServeSwap{
		Version: int64(snap.Version), RDelta: rdelta, BuildMS: done.BuildMS,
		Rebuilt: rebuilt, Rows: int64(len(inst.Demands)),
	})
	rec.RecordServeResolve(done)
	s.logf("serve: placement v%d swapped in (%d passes, gap %.2f%%, objective %.1f GB)",
		snap.Version, res.Passes, 100*res.Gap, res.Objective)
	return snap, nil
}

// originsFromSnapshot maps each video of the new instance to an office
// currently serving it (the migration-cost origin of objective (11)).
// Videos the served placement does not hold get the −1 "no prior copy"
// sentinel.
func originsFromSnapshot(inst *mip.Instance, snap *Snapshot) []int32 {
	out := make([]int32, len(inst.Demands))
	for vi := range inst.Demands {
		out[vi] = -1
		id := inst.Demands[vi].Video
		if id < 0 || id >= len(snap.vidIdx) {
			continue
		}
		pv := snap.vidIdx[id]
		if pv < 0 {
			continue
		}
		for _, f := range snap.Sol.Videos[pv].Open {
			if f.V >= openY {
				out[vi] = f.I
				break
			}
		}
	}
	return out
}
