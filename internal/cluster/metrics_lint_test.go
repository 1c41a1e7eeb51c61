package cluster

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/metric"
)

// TestMetricsLint scrapes a live schedd and a router in front of it
// and checks both expositions: each family has exactly one # TYPE line,
// ahead of its samples; a family's samples are contiguous; family
// names are unique; two scrapes list the families in the same order;
// every sample perfbench reads is served; and both tiers name the
// format with metric.ContentType.
func TestMetricsLint(t *testing.T) {
	_, backend := newBackendServer(t)
	_, router := newRouter(t, backend.URL)
	// One solve through the router fills the labelled families: response
	// codes, the backend's counters, the algorithm's breaker.
	if resp, body := postJSON(t, router.URL+"/v1/schedule", scheduleReq(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	reads := perfbenchReads(t)
	for _, tier := range []struct{ name, url, scrape string }{
		{"schedd", backend.URL, "sd"},
		{"schedrouter", router.URL, "rd"},
	} {
		text, contentType := scrapeText(t, tier.url)
		if contentType != metric.ContentType {
			t.Errorf("%s: /metrics Content-Type %q, want %q", tier.name, contentType, metric.ContentType)
		}
		first, samples, err := lintExposition(text)
		if err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
		text, _ = scrapeText(t, tier.url)
		second, _, err := lintExposition(text)
		if err != nil {
			t.Fatalf("%s: second scrape: %v", tier.name, err)
		}
		if !slices.Equal(first, second) {
			t.Fatalf("%s: family order changed between scrapes:\n%v\n%v", tier.name, first, second)
		}
		if len(reads[tier.scrape]) == 0 {
			t.Fatalf("%s: found no %s[...] lookups in perfbench", tier.name, tier.scrape)
		}
		for _, name := range reads[tier.scrape] {
			if !samples[name] {
				t.Errorf("%s: perfbench reads %s, which /metrics does not serve", tier.name, name)
			}
		}
	}
}

func scrapeText(t *testing.T, base string) (text, contentType string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// lintExposition checks one Prometheus text scrape and returns its
// family names in order and the set of its sample keys (name and
// labels, as perfbench keys them).
func lintExposition(text string) (families []string, samples map[string]bool, err error) {
	kinds := map[string]string{}
	samples = map[string]bool{}
	current := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(typ, " ")
			if kinds[name] != "" {
				return nil, nil, fmt.Errorf("family %s has a second # TYPE line", name)
			}
			kinds[name] = kind
			families = append(families, name)
			current = name
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 || strings.HasPrefix(line, "#") {
			return nil, nil, fmt.Errorf("malformed line %q", line)
		}
		key := line[:i]
		samples[key] = true
		name, _, _ := strings.Cut(key, "{")
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && kinds[base] == "histogram" {
				family = base
			}
		}
		switch {
		case family == current:
		case kinds[family] != "":
			return nil, nil, fmt.Errorf("samples of %s are split by family %s", family, current)
		default:
			return nil, nil, fmt.Errorf("sample %q comes before any # TYPE line of its family", line)
		}
	}
	return families, samples, nil
}

// perfbenchReads returns the metric keys perfbench looks up in its
// schedd ("sd") and router ("rd") scrapes, taken from its source.
func perfbenchReads(t *testing.T) map[string][]string {
	t.Helper()
	files, err := filepath.Glob("../../perfbench/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("perfbench sources not found: %v", err)
	}
	lookup := regexp.MustCompile(`\b(sd|rd)\["([^"]+)"\]`)
	reads := map[string][]string{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lookup.FindAllStringSubmatch(string(src), -1) {
			reads[m[1]] = append(reads[m[1]], m[2])
		}
	}
	return reads
}
