package debug_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"golisa/internal/core"
	"golisa/internal/debug"
	"golisa/internal/fleet"
	"golisa/internal/sim"
)

// newBatchServer builds a debug server with the fleet service and a shared
// fleet metrics collector attached, the way lisa-sim -http wires it.
func newBatchServer(t *testing.T) (*httptest.Server, *fleet.Metrics) {
	t.Helper()
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := m.AssembleAndLoad(countdown, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	fm := fleet.NewMetrics()
	srv := debug.NewServer(s, debug.Options{
		Batch:        &fleet.Service{Machine: m, Mode: sim.Compiled, Telemetry: fm},
		BatchMetrics: fm,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, fm
}

func countdownManifest(t *testing.T, jobs int) string {
	t.Helper()
	man := fleet.Manifest{Workers: 2}
	for i := 0; i < jobs; i++ {
		man.Jobs = append(man.Jobs, fleet.Job{Name: fmt.Sprintf("cd-%d", i), Source: countdown})
	}
	b, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBatchStreamEndpoint posts a manifest to /batch/stream and checks the
// NDJSON contract: the right Content-Type, one job record per job followed
// by one summary record, and the summary with results elided.
func TestBatchStreamEndpoint(t *testing.T) {
	ts, _ := newBatchServer(t)
	const nJobs = 3
	resp, err := http.Post(ts.URL+"/batch/stream", "application/json",
		strings.NewReader(countdownManifest(t, nJobs)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /batch/stream: %s: %s", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var jobLines, sumLines int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec fleet.StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch rec.Type {
		case "job":
			jobLines++
			if sumLines != 0 {
				t.Error("job record after the summary")
			}
			if rec.Result == nil || !rec.Result.Halted || rec.Result.Err != "" {
				t.Errorf("job record = %+v", rec)
			}
		case "summary":
			sumLines++
			if rec.Job != -1 || rec.Summary == nil || rec.Summary.Results != nil {
				t.Errorf("summary record = %+v", rec)
			}
			if rec.Summary.Jobs != nJobs || rec.Summary.Failed != 0 {
				t.Errorf("summary = %+v", rec.Summary)
			}
		default:
			t.Errorf("unknown record type %q", rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if jobLines != nJobs || sumLines != 1 {
		t.Errorf("%d job + %d summary lines, want %d + 1", jobLines, sumLines, nJobs)
	}
}

// TestBatchMetricsEndpoint checks /batch/metrics serves the shared fleet
// collector in exposition format, fed by batches run through any batch
// endpoint, and 404s when no collector is attached.
func TestBatchMetricsEndpoint(t *testing.T) {
	ts, _ := newBatchServer(t)
	for _, path := range []string{"/batch", "/batch/stream"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(countdownManifest(t, 2)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/batch/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /batch/metrics: %s: %s", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE lisa_fleet_jobs_total counter",
		"lisa_fleet_batches_total 2",
		"lisa_fleet_jobs_total 4",
		"lisa_fleet_jobs_in_flight 0",
		`lisa_fleet_job_latency_seconds_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := m.AssembleAndLoad(countdown, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	bare := httptest.NewServer(debug.NewServer(s, debug.Options{}).Handler())
	defer bare.Close()
	if resp, err := http.Get(bare.URL + "/batch/metrics"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /batch/metrics without collector = %d, want 404", resp.StatusCode)
	}
}

// TestBatchEndpointHardening covers the request-contract failures shared
// by /batch and /batch/stream: non-POST methods get 405 with an Allow
// header, malformed JSON gets 400, oversized bodies get 413 — all with
// JSON error bodies and the JSON Content-Type.
func TestBatchEndpointHardening(t *testing.T) {
	ts, _ := newBatchServer(t)
	checkJSONErr := func(t *testing.T, resp *http.Response, wantCode int) {
		t.Helper()
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Errorf("status %d, want %d (%s)", resp.StatusCode, wantCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("error Content-Type = %q, want application/json", ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("error body %q is not {\"error\": ...}: %v", body, err)
		}
	}

	for _, path := range []string{"/batch", "/batch/stream"} {
		t.Run(path, func(t *testing.T) {
			// Wrong method.
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
				t.Errorf("Allow = %q, want POST", allow)
			}
			checkJSONErr(t, resp, http.StatusMethodNotAllowed)

			// Malformed manifest.
			resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader("{not json"))
			if err != nil {
				t.Fatal(err)
			}
			checkJSONErr(t, resp, http.StatusBadRequest)

			// Oversized body: a manifest bigger than the 8 MiB cap.
			huge := `{"jobs":[{"name":"x","source":"` + strings.Repeat("A", 9<<20) + `"}]}`
			resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
			if err != nil {
				t.Fatal(err)
			}
			checkJSONErr(t, resp, http.StatusRequestEntityTooLarge)

			// Valid JSON, invalid manifest (foreign model): still a clean
			// JSON 400, even on the streaming endpoint (headers unsent).
			resp, err = http.Post(ts.URL+path, "application/json",
				strings.NewReader(`{"model":"nosuch","jobs":[{"name":"x","source":"HALT"}]}`))
			if err != nil {
				t.Fatal(err)
			}
			checkJSONErr(t, resp, http.StatusBadRequest)
		})
	}
}

// TestBatchOversizedImage posts a job whose .space directive runs past
// program memory (it used to allocate 2^39 words and kill the server):
// the job fails with the assembler's error in the JSON summary, and the
// server goes on serving.
func TestBatchOversizedImage(t *testing.T) {
	ts, _ := newBatchServer(t)
	post := func(man string) fleet.Summary {
		t.Helper()
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(man))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sum fleet.Summary
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, decode error %v", resp.StatusCode, err)
		}
		return sum
	}
	sum := post(`{"jobs":[{"name":"big","source":"LDI B1, 1\n.space 0x7fffffffff\nHALT\n"}]}`)
	if sum.Failed != 1 || len(sum.Results) != 1 || !strings.Contains(sum.Results[0].Err, "past the end of program memory") {
		t.Fatalf("failed %d, results %+v; want the job failed with the assembler's error", sum.Failed, sum.Results)
	}
	if sum := post(countdownManifest(t, 2)); sum.Failed != 0 || len(sum.Results) != 2 {
		t.Fatalf("batch after the oversized job: failed %d of %d", sum.Failed, len(sum.Results))
	}
}

// TestBatchEndpointsConcurrent hammers /batch and /batch/stream in
// parallel against one server sharing one metrics collector — the -race
// check that per-batch telemetry serialization and the cross-batch
// collector locking compose. Afterwards the collector must account for
// every job exactly once.
func TestBatchEndpointsConcurrent(t *testing.T) {
	ts, _ := newBatchServer(t)
	const (
		clients     = 8
		jobsPerReq  = 3
		reqsPerClnt = 2
	)
	man := countdownManifest(t, jobsPerReq)
	var wg sync.WaitGroup
	errs := make(chan error, clients*reqsPerClnt)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reqsPerClnt; r++ {
				path := "/batch"
				if (c+r)%2 == 0 {
					path = "/batch/stream"
				}
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(man))
				if err != nil {
					errs <- err
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("POST %s: %s: %s", path, resp.Status, body)
					continue
				}
				if path == "/batch/stream" {
					if got := strings.Count(string(body), "\n"); got != jobsPerReq+1 {
						errs <- fmt.Errorf("stream returned %d lines, want %d", got, jobsPerReq+1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err := http.Get(ts.URL + "/batch/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	total := clients * reqsPerClnt * jobsPerReq
	if want := fmt.Sprintf("lisa_fleet_jobs_total %d", total); !strings.Contains(string(body), want) {
		t.Errorf("metrics missing %q:\n%s", want, body)
	}
	if !strings.Contains(string(body), fmt.Sprintf("lisa_fleet_batches_total %d", clients*reqsPerClnt)) {
		t.Errorf("metrics missing batch count:\n%s", body)
	}
}
