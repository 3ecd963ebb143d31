package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledHeaderIsCutOff: a client that opens a connection, sends half
// a request header and then goes quiet must be disconnected by the server
// once readHeaderTimeout passes — without the limit it would hold the
// connection (and a goroutine) forever.
func TestStalledHeaderIsCutOff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /place HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before closing; either way the stream must
	// end (EOF) soon after the header deadline, long before the test's own.
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server kept the stalled connection open past %v: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header deadline could have fired", waited)
	}
}
