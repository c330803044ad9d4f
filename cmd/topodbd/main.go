// Command topodbd serves named topodb instances over HTTP/JSON.
//
// Usage:
//
//	topodbd -addr :8080 -load main=fig1c -load aux=instance.json
//
// -load is repeatable and takes name=source, where source is a built-in
// fixture (fig1a, fig1b, fig1c, fig1d, O) or a path to an instance JSON
// file in topoquery's format. With -allow-create (the default), POST
// /v1/apply may also create instances on the fly.
//
// The server is the serving tier described in the README "Serving"
// section: identical concurrent reads of one generation coalesce onto a
// single evaluation, small queries arriving within the batch window fold
// into one QueryBatch, admission control bounds in-flight requests, and
// every response is stamped with the generation of the snapshot that
// answered it. Observability is on GET /metrics (Prometheus text format);
// GET /healthz answers liveness probes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"

	"topodb"
	"topodb/internal/serve"
	"topodb/internal/spatial"
)

type loadList []string

func (l *loadList) String() string { return fmt.Sprint(*l) }
func (l *loadList) Set(s string) error {
	*l = append(*l, s)
	return nil
}

func main() {
	opts := serve.DefaultOptions()
	var (
		addr  = flag.String("addr", ":8080", "listen address")
		loads loadList
	)
	flag.Var(&loads, "load", "name=source instance to serve; source is a fixture name or JSON file (repeatable)")
	flag.DurationVar(&opts.BatchWindow, "batch-window", opts.BatchWindow, "how long the first query of a batch waits for siblings (0 disables batching)")
	flag.IntVar(&opts.BatchMax, "batch-max", opts.BatchMax, "flush a batch window early at this many queries")
	flag.IntVar(&opts.MaxInflight, "max-inflight", opts.MaxInflight, "bound on concurrently admitted requests (0 = unbounded)")
	flag.DurationVar(&opts.AdmissionWait, "admission-wait", opts.AdmissionWait, "how long a request may wait for an in-flight slot before 429 (0 = shed immediately)")
	flag.DurationVar(&opts.DefaultTimeout, "timeout", opts.DefaultTimeout, "default evaluation deadline when the request has no timeout_ms")
	flag.DurationVar(&opts.MaxTimeout, "max-timeout", opts.MaxTimeout, "cap on client-requested timeouts")
	flag.BoolVar(&opts.AllowCreate, "allow-create", opts.AllowCreate, "let /v1/apply create instances that do not exist yet")
	budget := flag.Int("region-budget", 0, "override the admitted-instance size cap (0 keeps the default)")
	flag.Parse()

	if *budget > 0 {
		topodb.SetRegionBudget(*budget)
	}

	srv := serve.New(opts)
	for _, spec := range loads {
		name, source, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			log.Fatalf("topodbd: -load %q: want name=source", spec)
		}
		in, err := loadInstance(source)
		if err != nil {
			log.Fatalf("topodbd: -load %s: %v", name, err)
		}
		srv.Register(name, topodb.Wrap(in))
		log.Printf("topodbd: serving instance %q (%d regions) from %s", name, in.Len(), source)
	}

	log.Printf("topodbd: listening on %s", *addr)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		log.Fatalf("topodbd: %v", err)
	}
}

// loadInstance resolves a -load source: a built-in fixture name, or a
// path to an instance JSON file in topoquery's format.
func loadInstance(source string) (*spatial.Instance, error) {
	switch source {
	case "fig1a":
		return spatial.Fig1a(), nil
	case "fig1b":
		return spatial.Fig1b(), nil
	case "fig1c":
		return spatial.Fig1c(), nil
	case "fig1d":
		return spatial.Fig1d(), nil
	case "O":
		return spatial.InterlockedO(), nil
	}
	data, err := os.ReadFile(source)
	if err != nil {
		return nil, err
	}
	var in spatial.Instance
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	return &in, nil
}
