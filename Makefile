# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); the tool versions pinned here are the ones
# the lint job installs, so a local `make lint` reproduces the gate.

STATICCHECK_VERSION = 2024.1.1
GOVULNCHECK_VERSION = v1.1.3

.PHONY: all build test race lint topolint fmt vuln bench

all: build lint test

build:
	go build ./...

# cmd/topobench is a nested module that `./...` does not enter.
test:
	go test ./...
	cd cmd/topobench && go test .

race:
	go test -race ./...

# lint is the full static gate: vet, formatting (analyzer fixtures under
# internal/lint/testdata are position-sensitive test inputs and excluded),
# staticcheck at the pinned version, and the in-tree topolint suite.
lint: topolint
	go vet ./...
	@out=$$(gofmt -l . | grep -v '^internal/lint/testdata/' || true); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi
	go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# topolint runs the project's own analyzers (ratexact, mapdeterminism,
# lockdiscipline, ctxflow, errcompare). It is stdlib-only — no module
# downloads — so it works offline.
topolint:
	go run ./cmd/topolint ./...

fmt:
	@files=$$(gofmt -l . | grep -v '^internal/lint/testdata/' || true); \
	[ -z "$$files" ] || gofmt -w $$files

# vuln is advisory (CI runs it continue-on-error): known-vulnerable call
# paths, gated on the pinned scanner version rather than a floating tip.
vuln:
	go run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

bench:
	go test -run '^$$' -bench . -benchtime 1x -benchmem ./...
