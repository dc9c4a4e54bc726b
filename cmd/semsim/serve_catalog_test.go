package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"semsim"
)

// TestMetricsCatalogMatchesScrape: README's metrics catalog documents
// exactly the semsim_* families a fully armed serve exposes. Two serves
// with every optional surface on (query log, SLO, profiler, shadow
// verification of every query) take /query, /explain, /topk and a
// /mutate: one samples its walks, the other serves them lazily from a
// saved v3 file, so the walk-sampling and lazy-cache families each show
// in one of them. Every family in the union of their /metrics scrapes
// must be in the catalog, and every catalog name in that union.
func TestMetricsCatalogMatchesScrape(t *testing.T) {
	catalog := readmeCatalog(t)
	g, lin := smokeGraph(t)
	opts := semsim.IndexOptions{
		NumWalks: 40, WalkLength: 6, C: 0.6, Theta: 0.05,
		SLINGCutoff: 0.1, Seed: 1, ShadowRate: 1,
	}
	idx, err := semsim.BuildIndex(g, lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	walksPath := filepath.Join(t.TempDir(), "walks.v3")
	var walks bytes.Buffer
	if err := idx.SaveWalks(&walks); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	if err := os.WriteFile(walksPath, walks.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	scraped := map[string]bool{}
	typeLine := regexp.MustCompile(`(?m)^# TYPE (semsim_\w+) `)
	for _, path := range []string{"", walksPath} {
		lazy := opts
		lazy.LazyWalks = path != ""
		for _, m := range typeLine.FindAllStringSubmatch(scrapeArmedServe(t, g, lin, lazy, path), -1) {
			scraped[m[1]] = true
		}
	}
	for _, name := range sortedKeys(scraped) {
		if !catalog[name] {
			t.Errorf("%s is scraped but missing from README's metrics catalog", name)
		}
	}
	for _, name := range sortedKeys(catalog) {
		if !scraped[name] {
			t.Errorf("%s is in README's metrics catalog but neither serve exposes it", name)
		}
	}
}

// readmeCatalog returns every backticked semsim_* name in the first
// column of README's metrics catalog table.
func readmeCatalog(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "### Metrics catalog\n")
	if !ok {
		t.Fatal("README has no metrics catalog section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	name := regexp.MustCompile("`(semsim_\\w+)")
	names := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		first, _, _ := strings.Cut(line, " | ")
		if strings.Contains(first, "`_") {
			t.Errorf("catalog row %q abbreviates a name; write it out in full", first)
		}
		for _, m := range name.FindAllStringSubmatch(first, -1) {
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("README's metrics catalog lists no names")
	}
	return names
}

// scrapeArmedServe runs serve with every optional surface armed, drives
// each API endpoint once, waits until a shadow check has run (so the
// background reference build has been timed) and returns a /metrics
// scrape.
func scrapeArmedServe(t *testing.T, g *semsim.Graph, lin semsim.Measure, opts semsim.IndexOptions, walksPath string) string {
	t.Helper()
	stop := make(chan struct{})
	cfg := serveConfig{
		debugAddr:      "127.0.0.1:0",
		warmup:         4,
		opts:           opts,
		walksPath:      walksPath,
		queryLogPath:   filepath.Join(t.TempDir(), "query.ndjson"),
		healthInterval: 20 * time.Millisecond,
		sloLatency:     time.Second,
		profileP99:     time.Second,
		stop:           stop,
		logw:           io.Discard,
	}
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- runServe(g, lin, cfg, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not come up within 30s")
	}
	defer func() {
		close(stop)
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("shutdown: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("serve did not shut down")
		}
	}()

	do := func(method, path, body string) string {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: read: %v", method, path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
		}
		return string(data)
	}
	do("GET", "/explain?u=ada&v=eve", "")
	do("GET", "/topk?u=cho&k=3", "")
	do("POST", "/mutate", `{"ops":[{"op":"add_edge","from":"ada","to":"fay","label":"co-author"}]}`)
	for deadline := time.Now().Add(30 * time.Second); ; {
		do("GET", "/query?u=ada&v=ben", "")
		metrics := do("GET", "/metrics", "")
		if !strings.Contains(metrics, "semsim_shadow_checked_total 0\n") || time.Now().After(deadline) {
			return metrics
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
