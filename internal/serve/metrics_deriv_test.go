package serve

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsDerivationRendering pins the exposition format of the
// artifact-derivation counter: SetDerivations stores absolute values in
// the given order, re-polls replace rather than accumulate, and WriteTo
// renders every row — zero-valued or not — positionally.
func TestMetricsDerivationRendering(t *testing.T) {
	m := NewMetrics()
	if got := m.Snapshot().Derivations; len(got) != 0 {
		t.Fatalf("fresh registry has %d derivation rows, want 0", len(got))
	}
	rows := []DerivationRow{
		{Kind: "arrangement", Mode: "cold", N: 3},
		{Kind: "arrangement", Mode: "incremental", N: 9},
		{Kind: "arrangement", Mode: "aliased", N: 0},
		{Kind: "universe", Mode: "cold", N: 1},
		{Kind: "universe", Mode: "cold", Refined: true, N: 2},
		{Kind: "universe", Mode: "incremental", Refined: true, N: 5},
		{Kind: "invariant", Mode: "cold", N: 1},
		{Kind: "invariant", Mode: "incremental", N: 8},
		{Kind: "sinvariant", Mode: "cold", N: 2},
	}
	m.SetDerivations(rows)
	m.SetDerivations(rows) // re-scrape: absolute values, no accumulation

	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	want := `# TYPE topodbd_artifact_derivations_total counter
topodbd_artifact_derivations_total{kind="arrangement",mode="cold",refined="false"} 3
topodbd_artifact_derivations_total{kind="arrangement",mode="incremental",refined="false"} 9
topodbd_artifact_derivations_total{kind="arrangement",mode="aliased",refined="false"} 0
topodbd_artifact_derivations_total{kind="universe",mode="cold",refined="false"} 1
topodbd_artifact_derivations_total{kind="universe",mode="cold",refined="true"} 2
topodbd_artifact_derivations_total{kind="universe",mode="incremental",refined="true"} 5
topodbd_artifact_derivations_total{kind="invariant",mode="cold",refined="false"} 1
topodbd_artifact_derivations_total{kind="invariant",mode="incremental",refined="false"} 8
topodbd_artifact_derivations_total{kind="sinvariant",mode="cold",refined="false"} 2
`
	if !strings.Contains(body, want) {
		t.Errorf("/metrics rendering missing derivation block\nwant:\n%s\nbody:\n%s", want, body)
	}
}

// TestMetricsDerivationScrape drives a query through a live server and
// checks the /metrics scrape polls the engine's derivation tallies: the
// fixed (kind, mode) rows are all present with the engine's cumulative
// counts (non-deterministic across the suite, so only presence and the
// row order are pinned).
func TestMetricsDerivationScrape(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var out QueryResponse
	post(t, ts, "/v1/query", QueryRequest{Instance: "main", Query: "closed(A)"}, &out)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	last := -1
	for _, want := range []string{
		"# TYPE topodbd_artifact_derivations_total counter",
		`topodbd_artifact_derivations_total{kind="arrangement",mode="cold",refined="false"}`,
		`topodbd_artifact_derivations_total{kind="arrangement",mode="incremental",refined="false"}`,
		`topodbd_artifact_derivations_total{kind="arrangement",mode="aliased",refined="false"}`,
		`topodbd_artifact_derivations_total{kind="universe",mode="cold",refined="false"}`,
		`topodbd_artifact_derivations_total{kind="universe",mode="cold",refined="true"}`,
		`topodbd_artifact_derivations_total{kind="universe",mode="incremental",refined="true"}`,
		`topodbd_artifact_derivations_total{kind="invariant",mode="cold",refined="false"}`,
		`topodbd_artifact_derivations_total{kind="invariant",mode="incremental",refined="false"}`,
		`topodbd_artifact_derivations_total{kind="sinvariant",mode="cold",refined="false"}`,
	} {
		i := strings.Index(body, want)
		if i < 0 {
			t.Fatalf("/metrics missing %q\nbody:\n%s", want, body)
		}
		if i < last {
			t.Fatalf("/metrics row %q out of order", want)
		}
		last = i
	}
}
