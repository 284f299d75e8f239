package shrecd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// testServer returns a server with tiny run lengths so handler tests
// finish in milliseconds.
func testServer() *Server {
	return New(Config{
		DefaultOptions: sim.Options{WarmupInstrs: 2000, MeasureInstrs: 5000, Parallelism: 8},
		MaxConcurrent:  8,
	})
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestSimulateEndpoint(t *testing.T) {
	h := testServer().Handler()
	w := postJSON(t, h, "/simulate", `{"machine":"shrec","benchmark":"swim"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Machine   string  `json:"machine"`
		Benchmark string  `json:"benchmark"`
		IPC       float64 `json:"ipc"`
		CPI       float64 `json:"cpi"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Machine != "SHREC" || resp.Benchmark != "swim" {
		t.Fatalf("labels = %s/%s", resp.Machine, resp.Benchmark)
	}
	if resp.IPC <= 0 || resp.CPI <= 0 {
		t.Fatalf("IPC=%v CPI=%v", resp.IPC, resp.CPI)
	}
}

func TestSimulateValidation(t *testing.T) {
	h := testServer().Handler()
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"bad machine", `{"machine":"ss9","benchmark":"swim"}`, http.StatusBadRequest},
		{"bad benchmark", `{"machine":"ss1","benchmark":"nope"}`, http.StatusBadRequest},
		{"instr cap", `{"machine":"ss1","benchmark":"swim","measure_instrs":999999999}`, http.StatusBadRequest},
		{"instr cap uint64 wrap", `{"machine":"ss1","benchmark":"swim","warmup_instrs":9223372036854775808,"measure_instrs":9223372036854775808}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := postJSON(t, h, "/simulate", c.body); w.Code != c.status {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, w.Code, c.status, w.Body)
		}
	}
	// GET on a POST route must not dispatch.
	req := httptest.NewRequest(http.MethodGet, "/simulate", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /simulate status = %d, want 405", w.Code)
	}
}

// Duplicate concurrent requests for the same key execute one simulation.
func TestSimulateDeduplicatesConcurrentRequests(t *testing.T) {
	srv := testServer()
	h := srv.Handler()
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := postJSON(t, h, "/simulate", `{"machine":"ss1","benchmark":"parser"}`)
			if w.Code != http.StatusOK {
				t.Errorf("status = %d: %s", w.Code, w.Body)
			}
		}()
	}
	wg.Wait()
	if runs := srv.Sims().Runs(); runs != 1 {
		t.Fatalf("%d duplicate requests ran %d simulations, want 1", callers, runs)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment endpoint runs 100 simulations; skipped in short mode")
	}
	// One server throughout: after the legacy POST fills the cache, every
	// content-negotiated GET re-renders from cached results in
	// milliseconds.
	h := testServer().Handler()
	w := postJSON(t, h, "/experiments/fig7", ``)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Experiment string `json:"experiment"`
		Output     string `json:"output"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Experiment != "fig7" || !strings.Contains(resp.Output, "SHREC") {
		t.Fatalf("malformed experiment response: %+v", resp)
	}

	get := func(path, accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	// Default format is JSON: a structured report whose text rendering
	// matches the legacy output field.
	w = get("/experiments/fig7", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("GET json: %d %s", w.Code, w.Header().Get("Content-Type"))
	}
	var rep struct {
		Name   string `json:"name"`
		Title  string `json:"title"`
		Tables []struct {
			Title   string   `json:"title"`
			Columns []string `json:"columns"`
			Rows    []struct {
				Label  string    `json:"label"`
				Values []float64 `json:"values"`
			} `json:"rows"`
		} `json:"tables"`
		Notes []string          `json:"notes"`
		Meta  map[string]string `json:"meta"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Name != "fig7" || len(rep.Tables) != 2 || len(rep.Notes) != 2 {
		t.Fatalf("report shape: %+v", rep)
	}
	if got := rep.Tables[0].Columns; len(got) != 5 || got[0] != "benchmark" || got[2] != "SHREC" {
		t.Fatalf("columns = %v", got)
	}
	if len(rep.Tables[0].Rows) != 11+3 { // 11 integer benchmarks + 3 aggregates
		t.Fatalf("%d rows", len(rep.Tables[0].Rows))
	}
	if rep.Meta["measure_instrs"] != "5000" {
		t.Fatalf("meta = %v", rep.Meta)
	}

	// ?format=text reproduces the legacy output byte-for-byte.
	w = get("/experiments/fig7?format=text", "")
	if w.Code != http.StatusOK || w.Body.String() != resp.Output {
		t.Fatalf("text format diverges from legacy output (%d)", w.Code)
	}

	// CSV via Accept-header negotiation.
	w = get("/experiments/fig7", "text/csv")
	if w.Code != http.StatusOK || !strings.Contains(w.Header().Get("Content-Type"), "text/csv") {
		t.Fatalf("GET csv: %d %s", w.Code, w.Header().Get("Content-Type"))
	}
	if !strings.HasPrefix(w.Body.String(), "experiment,table,label,class,high,aggregate,column,value\n") {
		t.Fatalf("csv header: %q", w.Body.String()[:80])
	}
	if !strings.Contains(w.Body.String(), "fig7,") {
		t.Fatal("csv missing fig7 rows")
	}

	// Unknown format is a 400 before any simulation runs.
	if w = get("/experiments/fig7?format=xml", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("format=xml status = %d", w.Code)
	}
}

func TestExperimentCatalog(t *testing.T) {
	h := testServer().Handler()
	req := httptest.NewRequest(http.MethodGet, "/experiments", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp struct {
		Experiments []struct {
			Name  string `json:"name"`
			Title string `json:"title"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Experiments) != 10 {
		t.Fatalf("catalog = %+v", resp.Experiments)
	}
	if resp.Experiments[0].Name != "fig2" || resp.Experiments[0].Title == "" {
		t.Fatalf("catalog[0] = %+v", resp.Experiments[0])
	}
}

func TestExperimentUnknown(t *testing.T) {
	h := testServer().Handler()
	if w := postJSON(t, h, "/experiments/fig99", ``); w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", w.Code)
	}
}

func TestResultsEndpoint(t *testing.T) {
	srv := testServer()
	h := srv.Handler()
	for _, b := range []string{"swim", "parser"} {
		w := postJSON(t, h, "/simulate", fmt.Sprintf(`{"machine":"ss1","benchmark":%q}`, b))
		if w.Code != http.StatusOK {
			t.Fatalf("simulate %s: %d", b, w.Code)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/results", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp struct {
		Count   int `json:"count"`
		Runs    int `json:"runs"`
		Results []struct {
			Machine   string  `json:"machine"`
			Benchmark string  `json:"benchmark"`
			IPC       float64 `json:"ipc"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || resp.Runs != 2 || len(resp.Results) != 2 {
		t.Fatalf("results = %+v", resp)
	}
	// Sorted by machine then benchmark: parser before swim.
	if resp.Results[0].Benchmark != "parser" || resp.Results[1].Benchmark != "swim" {
		t.Fatalf("unsorted results: %+v", resp.Results)
	}
}

func TestHealthz(t *testing.T) {
	h := testServer().Handler()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz = %d: %s", w.Code, w.Body)
	}
	for _, key := range []string{
		`"runs"`, `"hits"`, `"store_errors"`,
		`"cache_hits"`, `"cache_misses"`, `"dedup_waits"`, `"store_hits"`,
		`"warmup_shares"`, `"interval_runs"`, `"recovery_runs"`, `"rollbacks"`,
		`"ladder_resumes"`, `"clean_shortcuts"`, `"skipped_instrs"`,
		`"ladder_goldens"`, `"tape_tail_reads"`,
	} {
		if !strings.Contains(w.Body.String(), key) {
			t.Errorf("healthz missing %s: %s", key, w.Body)
		}
	}
}

func TestMetrics(t *testing.T) {
	srv := testServer()
	h := srv.Handler()
	// One miss plus one duplicate make the counters observable.
	for i := 0; i < 2; i++ {
		if w := postJSON(t, h, "/simulate", `{"machine":"ss1","benchmark":"swim"}`); w.Code != http.StatusOK {
			t.Fatalf("simulate: %d", w.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"shrecd_sim_runs_total 1",
		"shrecd_sim_hits_total 1",
		"shrecd_sim_cache_hits_total 1",
		"shrecd_sim_cache_misses_total 1",
		"shrecd_sim_dedup_waits_total 0",
		"shrecd_sim_store_hits_total 0",
		"shrecd_sim_store_errors_total 0",
		"shrecd_sim_warmup_shares_total 0",
		"shrecd_sim_ladder_resumes_total 0",
		"shrecd_sim_clean_shortcuts_total 0",
		"shrecd_sim_skipped_instructions_total 0",
		"shrecd_sim_ladder_goldens_total 0",
		"shrecd_sim_tape_tail_reads_total 0",
		"shrecd_sim_interval_runs_total 0",
		"shrecd_sim_recovery_runs_total 0",
		"shrecd_sim_rollbacks_total 0",
		"shrecd_results_cached 1",
		"shrecd_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
