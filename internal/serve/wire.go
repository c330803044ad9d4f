package serve

// Wire envelope. Every request names the instance it targets; every
// response carries Gen, the mutation generation of the snapshot it was
// evaluated on — the contract the coalescing tests pin down: a response
// stamped gen G holds the answer the frozen state of generation G gives,
// never a newer one. Errors use the one canonical envelope below, with
// the HTTP status from the ErrorClass table.

// WireError is the error payload of every non-2xx response, and of
// per-query failures inside a batch response.
type WireError struct {
	// Code is the machine-readable class from the canonical table
	// (parse, no_region, too_many_regions, canceled, not_selectable,
	// no_instance, bad_request, overloaded, internal).
	Code string `json:"code"`
	// Message is the human-readable diagnostic.
	Message string `json:"message"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error WireError `json:"error"`
}

// QueryRequest asks for one boolean query verdict. Identical concurrent
// requests against the same generation coalesce onto one evaluation.
type QueryRequest struct {
	Instance string `json:"instance"`
	Query    string `json:"query"`
	// Refine overlays a k×k scaffold grid (0 = the plain cell complex);
	// a negative value is rejected with bad_request.
	Refine int `json:"refine,omitempty"`
	// TimeoutMS bounds evaluation; 0 uses the server default. The server
	// caps it at its configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse is the verdict of one query.
type QueryResponse struct {
	OK  bool   `json:"ok"`
	Gen uint64 `json:"gen"`
	// Coalesced reports that this response was shared from another
	// in-flight identical request's evaluation.
	Coalesced bool `json:"coalesced,omitempty"`
	// BatchSize is always 1: the server evaluates each query alone. The
	// field stays so existing clients keep decoding it.
	BatchSize int `json:"batch_size,omitempty"`
}

// BatchRequest evaluates many queries against one snapshot.
type BatchRequest struct {
	Instance  string   `json:"instance"`
	Queries   []string `json:"queries"`
	Refine    int      `json:"refine,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// BatchResult is one query's outcome inside a batch: a verdict, or a
// per-query typed error (siblings stay valid either way).
type BatchResult struct {
	OK    bool       `json:"ok"`
	Error *WireError `json:"error,omitempty"`
}

// BatchResponse answers a BatchRequest; Results is positional.
type BatchResponse struct {
	Gen     uint64        `json:"gen"`
	Results []BatchResult `json:"results"`
}

// PrepareRequest validates a query: the server parses and analyzes it and
// reports the region names it references. Nothing is kept server-side.
type PrepareRequest struct {
	Query string `json:"query"`
}

// PrepareResponse describes the prepared query.
type PrepareResponse struct {
	// Query is the normalized text: whitespace runs collapse to single
	// spaces, as they do for coalescing.
	Query string `json:"query"`
	// FreeNames are the region names the query references; evaluation
	// fails with no_region while any is absent from the instance.
	FreeNames []string `json:"free_names"`
}

// SelectRequest enumerates the witness bindings of the query's outermost
// quantifier instead of a bare verdict.
type SelectRequest struct {
	Instance  string `json:"instance"`
	Query     string `json:"query"`
	Refine    int    `json:"refine,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// SelectResponse carries the witness rows. Exactly one of the typed
// columns is non-nil, matching Sort ("name", "cell" or "region").
type SelectResponse struct {
	Gen  uint64 `json:"gen"`
	Var  string `json:"var"`
	Sort string `json:"sort"`
	// Names: satisfying region names (sort "name").
	Names []string `json:"names,omitempty"`
	// Cells: satisfying 2-cells as face ids (sort "cell").
	Cells []int `json:"cells,omitempty"`
	// Regions: satisfying legitimate regions as sorted face-id sets
	// (sort "region"), enumerated up to the region budget.
	Regions [][]int `json:"regions,omitempty"`
	// Complete is false when the region enumeration budget ran out
	// before the domain was exhausted: listed witnesses are sound,
	// unlisted ones are unknown, not refuted.
	Complete  bool `json:"complete"`
	Coalesced bool `json:"coalesced,omitempty"`
}

// RelateRequest classifies the 4-intersection relation of two regions.
type RelateRequest struct {
	Instance string `json:"instance"`
	A        string `json:"a"`
	B        string `json:"b"`
}

// RelateResponse names the relation (disjoint, meet, equal, overlap,
// inside, contains, coveredby, covers).
type RelateResponse struct {
	Gen      uint64 `json:"gen"`
	Relation string `json:"relation"`
}

// RelationsRequest asks for the full all-pairs relation table.
type RelationsRequest struct {
	Instance string `json:"instance"`
}

// RelationPair is one ordered pair's relation.
type RelationPair struct {
	A        string `json:"a"`
	B        string `json:"b"`
	Relation string `json:"relation"`
}

// RelationsResponse lists every ordered pair, sorted by (A, B).
type RelationsResponse struct {
	Gen   uint64         `json:"gen"`
	Pairs []RelationPair `json:"pairs"`
}

// InvariantRequest asks for the topological invariant's summary.
type InvariantRequest struct {
	Instance string `json:"instance"`
	// Canonical additionally returns the canonical encoding — equal
	// encodings (over equal name sets) mean topologically equivalent
	// instances. Its size grows with the cells' label entries, not with
	// regions × cells; off by default.
	Canonical bool `json:"canonical,omitempty"`
}

// InvariantResponse summarizes T_I.
type InvariantResponse struct {
	Gen       uint64 `json:"gen"`
	Vertices  int    `json:"vertices"`
	Edges     int    `json:"edges"`
	Faces     int    `json:"faces"`
	Connected bool   `json:"connected"`
	Simple    bool   `json:"simple"`
	Canonical string `json:"canonical,omitempty"`
}

// AddOp stages one region mutation inside an ApplyRequest. Kind selects
// the constructor; the other fields are positional per kind:
//
//	rect:       coords [x1, y1, x2, y2]
//	polygon:    coords [x1, y1, x2, y2, x3, y3, ...] (≥ 3 vertices)
//	circle:     coords [cx, cy, radius], n = boundary vertex count
//	rect_union: rects  [[x1, y1, x2, y2], ...]
type AddOp struct {
	Name   string     `json:"name"`
	Kind   string     `json:"kind"`
	Coords []int64    `json:"coords,omitempty"`
	N      int        `json:"n,omitempty"`
	Rects  [][4]int64 `json:"rects,omitempty"`
}

// ApplyRequest commits a batch of mutations atomically: concurrent
// readers observe either none or all of it, exactly topodb.Apply's
// contract over the wire.
type ApplyRequest struct {
	Instance string  `json:"instance"`
	Adds     []AddOp `json:"adds"`
}

// ApplyResponse reports the generation the batch produced.
type ApplyResponse struct {
	Gen     uint64 `json:"gen"`
	Regions int    `json:"regions"`
}

// InstanceInfo describes one served instance.
type InstanceInfo struct {
	Name    string `json:"name"`
	Regions int    `json:"regions"`
	Gen     uint64 `json:"gen"`
}

// InstancesResponse lists the served instances, sorted by name.
type InstancesResponse struct {
	Instances []InstanceInfo `json:"instances"`
}
