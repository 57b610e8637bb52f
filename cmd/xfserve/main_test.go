package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestServeDrainsBeforeClose stops serve while a request is blocked in its
// handler: the request must still get its 200, and the durable state must
// close only after the handler returned.
func TestServeDrainsBeforeClose(t *testing.T) {
	var (
		mu     sync.Mutex
		events []string
	)
	note := func(e string) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		note("handler returned")
		w.WriteHeader(http.StatusOK)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- serve(stop, ln, h, 10*time.Second, func() error { note("closed"); return nil })
	}()

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/subscriptions", "application/json", nil)
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered
	cancel()
	// Give a wrong ordering the time to show: close must wait for the
	// handler however long it takes.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	early := len(events)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("events before the handler returned: %v", events)
	}
	close(release)
	if got := <-status; got != http.StatusOK {
		t.Fatalf("in-flight request got status %d, want 200", got)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if want := []string{"handler returned", "closed"}; len(events) != 2 || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("events = %v, want %v", events, want)
	}
}
