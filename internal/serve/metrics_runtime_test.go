package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

var runtimeTestSink []byte

// TestMetricsGoRuntimeRendering pins the exposition format of the Go heap
// and GC series, and that each one reads a live runtime/metrics value:
// allocating advances the allocation counter and a forced collection
// advances the cycle counter.
func TestMetricsGoRuntimeRendering(t *testing.T) {
	var buf bytes.Buffer
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(&buf, format, args...)
		return err
	}
	if err := writeGoRuntime(p, []uint64{1 << 20, 3 << 20, 7}); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE topodbd_go_heap_live_bytes gauge
topodbd_go_heap_live_bytes 1048576
# TYPE topodbd_go_heap_alloc_bytes_total counter
topodbd_go_heap_alloc_bytes_total 3145728
# TYPE topodbd_go_gc_cycles_total counter
topodbd_go_gc_cycles_total 7
`
	if buf.String() != want {
		t.Errorf("rendering:\n%s\nwant:\n%s", buf.String(), want)
	}

	before := readGoRuntime()
	runtimeTestSink = make([]byte, 1<<20)
	runtime.GC()
	after := readGoRuntime()
	if after[0] == 0 {
		t.Error("live heap reads 0 bytes")
	}
	if after[1] < before[1]+1<<20 {
		t.Errorf("allocation counter went %d -> %d across a 1 MB allocation", before[1], after[1])
	}
	if after[2] <= before[2] {
		t.Errorf("GC cycle counter went %d -> %d across runtime.GC", before[2], after[2])
	}

	buf.Reset()
	if _, err := NewMetrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, s := range goRuntimeSeries {
		if !strings.Contains(buf.String(), "# TYPE "+s.name+" "+s.kind+"\n"+s.name+" ") {
			t.Errorf("fresh registry's /metrics lacks %s", s.name)
		}
	}
}
