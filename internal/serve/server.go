package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"topodb"
)

// Options configures a Server. The zero value disables every serving-tier
// mechanism (no admission control, no deadlines); start from
// DefaultOptions for production-shaped settings.
type Options struct {
	// MaxInflight bounds concurrently admitted requests; <= 0 means
	// unbounded (no admission control).
	MaxInflight int
	// AdmissionWait is how long a request may wait for an in-flight slot
	// before being shed with 429; 0 sheds immediately when saturated.
	AdmissionWait time.Duration
	// DefaultTimeout bounds evaluation when the request carries no
	// timeout_ms; <= 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts; <= 0 means uncapped.
	MaxTimeout time.Duration
	// AllowCreate lets /v1/apply create an instance that does not exist
	// yet instead of failing with no_instance.
	AllowCreate bool
}

// DefaultOptions returns production-shaped settings: 256 in-flight
// requests with immediate shedding, a 5s default evaluation deadline
// capped at 30s, and apply-side instance creation allowed.
func DefaultOptions() Options {
	return Options{
		MaxInflight:    256,
		AdmissionWait:  0,
		DefaultTimeout: 5 * time.Second,
		MaxTimeout:     30 * time.Second,
		AllowCreate:    true,
	}
}

// Server serves named topodb.Instances over HTTP/JSON. It owns the
// serving-tier mechanics — coalescing, admission control, deadlines,
// metrics — and delegates every evaluation to the library's snapshot API,
// so a response is always the answer of one immutable generation, stamped
// with that generation.
type Server struct {
	opts     Options
	metrics  *Metrics
	coal     *coalescer
	inflight chan struct{}

	mu        sync.RWMutex
	instances map[string]*topodb.Instance

	mux *http.ServeMux
}

// New returns a Server with the given options and no instances; register
// them with Register before (or while) serving.
func New(opts Options) *Server {
	s := &Server{
		opts:      opts,
		metrics:   NewMetrics(),
		coal:      newCoalescer(),
		instances: make(map[string]*topodb.Instance),
	}
	if opts.MaxInflight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInflight)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.wrap("query", s.handleQuery))
	s.mux.HandleFunc("POST /v1/query/batch", s.wrap("batch", s.handleBatch))
	s.mux.HandleFunc("POST /v1/prepare", s.wrap("prepare", s.handlePrepare))
	s.mux.HandleFunc("POST /v1/select", s.wrap("select", s.handleSelect))
	s.mux.HandleFunc("POST /v1/relate", s.wrap("relate", s.handleRelate))
	s.mux.HandleFunc("POST /v1/relations", s.wrap("relations", s.handleRelations))
	s.mux.HandleFunc("POST /v1/invariant", s.wrap("invariant", s.handleInvariant))
	s.mux.HandleFunc("POST /v1/apply", s.wrap("apply", s.handleApply))
	s.mux.HandleFunc("GET /v1/instances", s.wrap("instances", s.handleInstances))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.pollShardStats()
		s.pollDerivations()
		s.metrics.WriteTo(w)
	})
	return s
}

// pollShardStats folds every registered instance's current sharded-
// artifact reading into the metrics registry. Called at scrape time: the
// stats are free to read (ShardStats never triggers a build), so the
// serving hot path carries no extra bookkeeping.
func (s *Server) pollShardStats() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, db := range s.instances {
		s.foldShardStats(name, db.Snapshot())
	}
}

// foldShardStats folds one snapshot's sharded-artifact reading into the
// registry, stamped with the snapshot's own generation — never the
// instance's, which an Apply may have moved on since the snapshot.
func (s *Server) foldShardStats(name string, snap *topodb.Snapshot) {
	if stats, ok := snap.ShardStats(); ok {
		s.metrics.ShardStats(name, snap.Gen(), stats.Shards, stats.BuildNanos)
	}
}

// pollDerivations copies the engine's process-global artifact-derivation
// tallies into the registry. Called at scrape time like pollShardStats:
// the counters are lock-free atomics, so reading them costs nothing on
// the serving hot path.
func (s *Server) pollDerivations() {
	engine := topodb.ArtifactDerivationCounts()
	rows := make([]DerivationRow, len(engine))
	for i, d := range engine {
		rows[i] = DerivationRow{Kind: d.Kind, Mode: d.Mode, Refined: d.Refined, N: d.N}
	}
	s.metrics.SetDerivations(rows)
}

// Register adds (or replaces) a named instance.
func (s *Server) Register(name string, db *topodb.Instance) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.instances[name] = db
}

// Metrics returns the server's metrics registry (snapshot it in tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// instance looks up a served instance.
func (s *Server) instance(name string) (*topodb.Instance, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	db, ok := s.instances[name]
	return db, ok
}

// handlerError is a server-originated error with an explicit class
// (bad_request, no_instance, overloaded) rather than one derived from a
// library error.
type handlerError struct {
	class ErrorClass
	msg   string
}

func (e *handlerError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &handlerError{class: ClassBadRequest, msg: fmt.Sprintf(format, args...)}
}

func noInstance(name string) error {
	return &handlerError{class: ClassNoInstance, msg: fmt.Sprintf("no instance %q", name)}
}

// classify maps any handler error onto the canonical table.
func classify(err error) ErrorClass {
	var he *handlerError
	if errors.As(err, &he) {
		return he.class
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Raw context errors reach here from coalesce joiners that give
		// up before the library wraps them; same class.
		return ClassCanceled
	}
	return ClassOf(err)
}

// wrap is the per-route middleware: admission control, dispatch, error
// mapping, and metrics.
func (s *Server) wrap(route string, fn func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		release, ok := s.admit(r.Context())
		if !ok {
			s.metrics.Shed()
			s.metrics.Request(route, time.Since(start), ClassOverloaded.Code)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, ClassOverloaded.Status, ErrorResponse{Error: WireError{
				Code: ClassOverloaded.Code, Message: "server at max in-flight requests",
			}})
			return
		}
		defer release()
		payload, err := fn(r)
		if err != nil {
			class := classify(err)
			s.metrics.Request(route, time.Since(start), class.Code)
			writeJSON(w, class.Status, ErrorResponse{Error: WireError{Code: class.Code, Message: err.Error()}})
			return
		}
		s.metrics.Request(route, time.Since(start), ClassOK.Code)
		writeJSON(w, http.StatusOK, payload)
	}
}

// admit acquires an in-flight slot, waiting at most AdmissionWait.
func (s *Server) admit(ctx context.Context) (func(), bool) {
	if s.inflight == nil {
		return func() {}, true
	}
	select {
	case s.inflight <- struct{}{}:
		return func() { <-s.inflight }, true
	default:
	}
	if s.opts.AdmissionWait > 0 {
		t := time.NewTimer(s.opts.AdmissionWait)
		defer t.Stop()
		select {
		case s.inflight <- struct{}{}:
			return func() { <-s.inflight }, true
		case <-t.C:
		case <-ctx.Done():
		}
	}
	return nil, false
}

// reqCtx derives the evaluation context: the client's timeout_ms when
// given (capped at MaxTimeout), the server default otherwise.
func (s *Server) reqCtx(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if s.opts.MaxTimeout > 0 && (d <= 0 || d > s.opts.MaxTimeout) {
		d = s.opts.MaxTimeout
	}
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// decode reads a JSON request body.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("malformed request body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// checkRefine rejects a negative refinement level before any snapshot is
// taken: every distinct k gets its own per-generation universe, so an
// unchecked k < 0 would let a client pin one full unscaffolded build per
// value it sends.
func checkRefine(k int) error {
	if k < 0 {
		return badRequest("refine %d is negative", k)
	}
	return nil
}

func (s *Server) handleQuery(r *http.Request) (any, error) {
	var req QueryRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if req.Query == "" {
		return nil, badRequest("missing query")
	}
	if err := checkRefine(req.Refine); err != nil {
		return nil, err
	}
	db, ok := s.instance(req.Instance)
	if !ok {
		return nil, noInstance(req.Instance)
	}
	ctx, cancel := s.reqCtx(r.Context(), req.TimeoutMS)
	defer cancel()

	snap := db.Snapshot()
	norm := normalizeQuery(req.Query)
	key := coalesceKey{route: "query", instance: req.Instance, gen: snap.Gen(), refine: req.Refine, query: norm}
	val, err, shared := s.coal.do(ctx, key, func() (any, error) {
		ok, err := snap.QueryRefined(ctx, norm, req.Refine)
		if err != nil {
			return nil, err
		}
		return QueryResponse{OK: ok, Gen: snap.Gen(), BatchSize: 1}, nil
	})
	if shared {
		s.metrics.CoalesceHit("query")
	}
	if err != nil {
		return nil, err
	}
	resp := val.(QueryResponse)
	resp.Coalesced = shared
	return resp, nil
}

func (s *Server) handleBatch(r *http.Request) (any, error) {
	var req BatchRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		return nil, badRequest("missing queries")
	}
	if err := checkRefine(req.Refine); err != nil {
		return nil, err
	}
	db, ok := s.instance(req.Instance)
	if !ok {
		return nil, noInstance(req.Instance)
	}
	ctx, cancel := s.reqCtx(r.Context(), req.TimeoutMS)
	defer cancel()

	snap := db.Snapshot()
	results, err := snap.QueryBatchRefined(ctx, req.Queries, req.Refine)
	resp := BatchResponse{Gen: snap.Gen(), Results: make([]BatchResult, len(req.Queries))}
	for i := range req.Queries {
		if results != nil && i < len(results) {
			resp.Results[i].OK = results[i]
		}
	}
	var be *topodb.BatchError
	switch {
	case errors.As(err, &be):
		for _, qe := range be.Errs {
			if qe.Index < 0 || qe.Index >= len(resp.Results) {
				continue
			}
			class := classify(qe.Err)
			resp.Results[qe.Index] = BatchResult{Error: &WireError{Code: class.Code, Message: qe.Err.Error()}}
		}
	case err != nil:
		return nil, err
	}
	return resp, nil
}

func (s *Server) handlePrepare(r *http.Request) (any, error) {
	var req PrepareRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if req.Query == "" {
		return nil, badRequest("missing query")
	}
	// Preparation is instance-independent, so a throwaway instance hosts
	// the parse; nothing is kept once the response is written.
	norm := normalizeQuery(req.Query)
	pq, err := topodb.NewInstance().Prepare(norm)
	if err != nil {
		return nil, err
	}
	return PrepareResponse{Query: norm, FreeNames: pq.FreeNames()}, nil
}

func (s *Server) handleSelect(r *http.Request) (any, error) {
	var req SelectRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if req.Query == "" {
		return nil, badRequest("missing query")
	}
	if err := checkRefine(req.Refine); err != nil {
		return nil, err
	}
	db, ok := s.instance(req.Instance)
	if !ok {
		return nil, noInstance(req.Instance)
	}
	ctx, cancel := s.reqCtx(r.Context(), req.TimeoutMS)
	defer cancel()

	snap := db.Snapshot()
	norm := normalizeQuery(req.Query)
	eval := func() (any, error) {
		res, err := snap.SelectRefined(ctx, norm, req.Refine)
		if err != nil {
			return nil, err
		}
		return SelectResponse{
			Gen: snap.Gen(), Var: res.Var, Sort: res.Sort,
			Names: res.Names, Cells: res.Cells, Regions: res.Regions,
			Complete: res.Complete,
		}, nil
	}
	key := coalesceKey{route: "select", instance: req.Instance, gen: snap.Gen(), refine: req.Refine, query: norm}
	val, err, shared := s.coal.do(ctx, key, eval)
	if shared {
		s.metrics.CoalesceHit("select")
	}
	if err != nil {
		return nil, err
	}
	resp := val.(SelectResponse)
	resp.Coalesced = shared
	return resp, nil
}

func (s *Server) handleRelate(r *http.Request) (any, error) {
	var req RelateRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if req.A == "" || req.B == "" {
		return nil, badRequest("missing region names a, b")
	}
	db, ok := s.instance(req.Instance)
	if !ok {
		return nil, noInstance(req.Instance)
	}
	snap := db.Snapshot()
	rel, err := snap.Relate(req.A, req.B)
	if err != nil {
		return nil, err
	}
	return RelateResponse{Gen: snap.Gen(), Relation: rel.String()}, nil
}

func (s *Server) handleRelations(r *http.Request) (any, error) {
	var req RelationsRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	db, ok := s.instance(req.Instance)
	if !ok {
		return nil, noInstance(req.Instance)
	}
	snap := db.Snapshot()
	rels, err := snap.AllRelations()
	if err != nil {
		return nil, err
	}
	resp := RelationsResponse{Gen: snap.Gen(), Pairs: make([]RelationPair, 0, len(rels))}
	for pair, rel := range rels {
		resp.Pairs = append(resp.Pairs, RelationPair{A: pair[0], B: pair[1], Relation: rel.String()})
	}
	sort.Slice(resp.Pairs, func(i, j int) bool {
		if resp.Pairs[i].A != resp.Pairs[j].A {
			return resp.Pairs[i].A < resp.Pairs[j].A
		}
		return resp.Pairs[i].B < resp.Pairs[j].B
	})
	return resp, nil
}

func (s *Server) handleInvariant(r *http.Request) (any, error) {
	var req InvariantRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	db, ok := s.instance(req.Instance)
	if !ok {
		return nil, noInstance(req.Instance)
	}
	snap := db.Snapshot()
	inv, err := snap.Invariant()
	if err != nil {
		return nil, err
	}
	v, e, f := inv.Stats()
	resp := InvariantResponse{
		Gen: snap.Gen(), Vertices: v, Edges: e, Faces: f,
		Connected: inv.Connected(), Simple: inv.Simple(),
	}
	if req.Canonical {
		resp.Canonical = inv.Canonical()
	}
	return resp, nil
}

func (s *Server) handleApply(r *http.Request) (any, error) {
	var req ApplyRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if len(req.Adds) == 0 {
		return nil, badRequest("missing adds")
	}
	db, ok := s.instance(req.Instance)
	if !ok {
		if !s.opts.AllowCreate || req.Instance == "" {
			return nil, noInstance(req.Instance)
		}
		s.mu.Lock()
		if db, ok = s.instances[req.Instance]; !ok {
			db = topodb.NewInstance()
			s.instances[req.Instance] = db
		}
		s.mu.Unlock()
	}
	err := db.Apply(func(tx *topodb.Txn) error {
		for _, op := range req.Adds {
			var err error
			switch op.Kind {
			case "rect":
				if len(op.Coords) != 4 {
					return badRequest("rect %q needs coords [x1,y1,x2,y2]", op.Name)
				}
				err = tx.AddRect(op.Name, op.Coords[0], op.Coords[1], op.Coords[2], op.Coords[3])
			case "polygon":
				err = tx.AddPolygon(op.Name, op.Coords...)
			case "circle":
				if len(op.Coords) != 3 {
					return badRequest("circle %q needs coords [cx,cy,radius]", op.Name)
				}
				err = tx.AddCircle(op.Name, op.Coords[0], op.Coords[1], op.Coords[2], op.N)
			case "rect_union":
				err = tx.AddRectUnion(op.Name, op.Rects...)
			default:
				return badRequest("region %q: unknown kind %q", op.Name, op.Kind)
			}
			if err != nil {
				return badRequest("region %q: %v", op.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	snap := db.Snapshot()
	return ApplyResponse{Gen: snap.Gen(), Regions: snap.Len()}, nil
}

func (s *Server) handleInstances(_ *http.Request) (any, error) {
	s.mu.RLock()
	names := make([]string, 0, len(s.instances))
	for name := range s.instances {
		names = append(names, name)
	}
	dbs := make([]*topodb.Instance, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		dbs = append(dbs, s.instances[name])
	}
	s.mu.RUnlock()
	resp := InstancesResponse{Instances: make([]InstanceInfo, len(names))}
	for i, name := range names {
		snap := dbs[i].Snapshot()
		resp.Instances[i] = InstanceInfo{Name: name, Regions: snap.Len(), Gen: snap.Gen()}
	}
	return resp, nil
}
