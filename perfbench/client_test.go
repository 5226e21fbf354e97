package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKernelTimerSleepsUntil(t *testing.T) {
	k, err := newKernelTimer()
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	for _, d := range []time.Duration{-time.Millisecond, 0, 300 * time.Microsecond, 3 * time.Millisecond} {
		due := time.Now().Add(d)
		if err := k.sleepUntil(due); err != nil {
			t.Fatal(err)
		}
		if late := time.Since(due); late < 0 {
			t.Errorf("sleep of %v returned %v early", d, -late)
		}
	}
}

// TestConnPool checks that the pool reuses at most n connections, sends
// bodies and headers, returns non-2xx statuses with their bodies, and
// dials again after the server closes a connection.
func TestConnPool(t *testing.T) {
	var mu sync.Mutex
	conns := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns[r.RemoteAddr] = true
		mu.Unlock()
		body, _ := io.ReadAll(r.Body)
		switch r.URL.Path {
		case "/close":
			w.Header().Set("Connection", "close")
		case "/missing":
			http.Error(w, "no such instance", http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, "%s %s %s %s", r.Method, r.URL.RequestURI(), r.Header.Get("CQA-Timeout-Ms"), body)
	}))
	defer srv.Close()
	p := newConnPool(strings.TrimPrefix(srv.URL, "http://"), 2)
	defer p.closeIdle()

	var wg sync.WaitGroup
	for i := range 20 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := fmt.Sprintf("/q?i=%d", i)
			status, body, err := p.do("GET", path, nil)
			if err != nil || status != http.StatusOK || string(body) != fmt.Sprintf("GET %s %d ", path, requestTimeoutMs) {
				t.Errorf("GET %s: %d %q %v", path, status, body, err)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	if len(conns) > 2 {
		t.Errorf("%d connections for a pool of 2", len(conns))
	}
	mu.Unlock()

	status, body, err := p.do("POST", "/m", []byte(`{"add":[]}`))
	if err != nil || status != http.StatusOK || string(body) != fmt.Sprintf(`POST /m %d {"add":[]}`, requestTimeoutMs) {
		t.Errorf("POST: %d %q %v", status, body, err)
	}
	if status, body, err = p.do("GET", "/missing", nil); err != nil || status != http.StatusNotFound || !strings.Contains(string(body), "no such instance") {
		t.Errorf("404: %d %q %v", status, body, err)
	}
	for range 3 {
		if status, _, err = p.do("GET", "/close", nil); err != nil || status != http.StatusOK {
			t.Fatalf("after a closed connection: %d %v", status, err)
		}
	}
}
