package server

import (
	"context"
	"errors"
	"time"

	bst "repro"
	"repro/internal/metrics"
	"repro/internal/rtrace"
	"repro/internal/wire"
)

// AggregateStore is the optional order-statistics capability a Store may
// offer. *bst.Tree built with bst.WithOrderStatistics satisfies it, and
// durable.Tree forwards to its underlying tree (aggregates are reads —
// nothing to log). A store without it answers every OpAggregate with
// StatusNoIndex, discovered by the same type-assertion idiom the server
// already uses for LastSeq.
type AggregateStore interface {
	Rank(key int64, c bst.Consistency) (int, error)
	Select(i int, c bst.Consistency) (int64, error)
	CountRange(lo, hi int64, c bst.Consistency) (int, error)
	SumRange(lo, hi int64, c bst.Consistency) (int64, error)
}

// statser is implemented by stores that report tree statistics
// (*bst.Tree, durable.Tree); the order-statistics refresh telemetry in
// them is exported on /metrics (zero for a tree without the index).
type statser interface{ Stats() bst.Stats }

// aggregateSeries folds a store's order-statistics refresh telemetry into
// a metrics snapshot: refresh waves by kind, cache hits by consistency,
// dirty keys re-resolved, and the wave duration histogram — enough to
// tell from a scrape why an Exact aggregate was slow.
func aggregateSeries(sn *metrics.Snapshot, a bst.AggregateStats) {
	sn.External[`orderstat_waves_total{kind="incremental"}`] += a.IncrementalWaves
	sn.External[`orderstat_waves_total{kind="full"}`] += a.FullWaves
	sn.External["orderstat_wave_dirty_keys_total"] += a.DirtyKeys
	sn.External[`orderstat_cache_hits_total{consistency="exact"}`] += a.ExactHits
	sn.External[`orderstat_cache_hits_total{consistency="bounded_stale"}`] += a.StaleHits
	l := metrics.LatencySnapshot{Count: a.WaveLatency.Count, SumNanos: a.WaveLatency.SumNanos}
	copy(l.Buckets[:], a.WaveLatency.Buckets)
	sn.ExternalLatency["orderstat_wave_seconds"] = l
}

// dispatchAggregate is dispatch for OpAggregate frames: decode the tail,
// pass admission once, and answer through the aggregate response shape.
// Aggregates are reads, so there is no role gate — any replica serves
// them, exactly like lookups — and no WAL ticket. poisoned reports a
// handler panic, as everywhere.
func (s *Server) dispatchAggregate(req wire.Request, frame []byte, tr *rtrace.Conn) (resp wire.AggregateResponse, poisoned bool) {
	resp.ID = req.ID
	start := time.Now()
	if s.draining.Load() {
		s.stats.drainRejected.Add(1)
		resp.Status = wire.StatusDraining
		return resp, false
	}
	aq, err := wire.DecodeAggregate(frame)
	if err != nil {
		// The frame boundary held; only the aggregate tail is malformed,
		// so the connection survives (same contract as a bad batch tail).
		s.stats.badRequests.Add(1)
		resp.Status = wire.StatusBadRequest
		return resp, false
	}
	tr.StartRequest(req.Trace, wire.OpAggregate, aq.Key)

	agg, can := s.cfg.Store.(AggregateStore)
	if !can {
		s.stats.noIndex.Add(1)
		resp.Status = wire.StatusNoIndex
		return resp, false
	}

	select {
	case s.sem <- struct{}{}:
	default:
		if s.cfg.AdmissionWait <= 0 {
			s.stats.shed.Add(1)
			resp.Status = wire.StatusOverloaded
			return resp, false
		}
		qStart := time.Now()
		t := time.NewTimer(s.cfg.AdmissionWait)
		select {
		case s.sem <- struct{}{}:
			t.Stop()
			tr.Span(rtrace.KQueueWait, qStart, 0)
		case <-t.C:
			s.stats.shed.Add(1)
			resp.Status = wire.StatusOverloaded
			return resp, false
		}
	}
	s.stats.inFlight.Add(1)
	defer func() {
		s.stats.inFlight.Add(-1)
		<-s.sem
		if p := recover(); p != nil {
			s.stats.panics.Add(1)
			s.log.Error("panic serving aggregate", "kind", wire.AggName(aq.Kind), "key", aq.Key,
				"conn", tr.ID(), "trace", tr.Context().TraceID, "panic", p)
			resp = wire.AggregateResponse{ID: req.ID, Status: wire.StatusInternal}
			poisoned = true
		}
	}()
	s.stats.requests.Add(1)
	s.stats.aggregates.Add(1)

	if fp := s.cfg.Failpoints; fp != nil {
		fp.Hit(FPHandle)
		if fp.Hit(FPPanic) {
			panic("failpoint " + FPPanic)
		}
	}

	budget := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		budget = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(budget))
	defer cancel()
	if ctx.Err() != nil {
		s.stats.timeouts.Add(1)
		resp.Status = wire.StatusDeadlineExceeded
		return resp, false
	}

	cons := bst.BoundedStale(aq.MaxDirty)
	if aq.Mode == wire.AggModeExact {
		cons = bst.Exact
	}
	opStart := time.Now()
	var value int64
	switch aq.Kind {
	case wire.AggRank:
		var r int
		r, err = agg.Rank(aq.Key, cons)
		value = int64(r)
	case wire.AggSelect:
		value, err = agg.Select(int(aq.Key), cons)
	case wire.AggCount:
		var n int
		n, err = agg.CountRange(aq.Key, aq.To, cons)
		value = int64(n)
	case wire.AggSum:
		value, err = agg.SumRange(aq.Key, aq.To, cons)
	}
	tr.Span(rtrace.KTreeOp, opStart, aq.Key)
	switch {
	case err == nil:
		resp.Status, resp.Value = wire.StatusOK, value
	case errors.Is(err, bst.ErrNoOrderStats):
		s.stats.noIndex.Add(1)
		resp.Status = wire.StatusNoIndex
	case errors.Is(err, bst.ErrSelectOutOfRange):
		s.stats.outOfRange.Add(1)
		resp.Status = wire.StatusKeyOutOfRange
	default:
		s.stats.badRequests.Add(1)
		resp.Status = wire.StatusBadRequest
	}
	return resp, false
}
