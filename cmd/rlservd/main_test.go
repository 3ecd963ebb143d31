package main

import (
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestFlagsMatchREADME: the flags registerFlags declares and the flags the
// README's "### `rlservd`" table documents are exactly the same set — a
// flag cannot be added, renamed or removed on one side only.
func TestFlagsMatchREADME(t *testing.T) {
	fs := flag.NewFlagSet("rlservd", flag.ContinueOnError)
	registerFlags(fs)
	var registered []string
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name) })
	sort.Strings(registered)

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### `rlservd`\n")
	if !ok {
		t.Fatal("README.md has no \"### `rlservd`\" section")
	}
	if i := strings.Index(section, "\n#"); i >= 0 {
		section = section[:i]
	}
	flagName := regexp.MustCompile("`-([a-z0-9-]+)`")
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		// cells[1] is the Flag column; a row may document several flags.
		for _, m := range flagName.FindAllStringSubmatch(cells[1], -1) {
			documented = append(documented, m[1])
		}
	}
	sort.Strings(documented)
	if got, want := strings.Join(documented, " "), strings.Join(registered, " "); got != want {
		t.Errorf("README rlservd flag table and registerFlags disagree\n  README:     %s\n  registered: %s", got, want)
	}
}

// TestDeletedFlagsAreRefused: the knobs of the deleted batch window,
// batcher queue and SLO degradation ladder are gone, not ignored —
// flag.CommandLine (ExitOnError) turns this parse error into exit status 2.
func TestDeletedFlagsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-batch-window", "1us"}, {"-max-batch", "64"},
		{"-slo-p99", "5ms"}, {"-slo-window", "30s"}, {"-slo-queue-high", "64"}, {"-healthz", "2"},
	} {
		fs := flag.NewFlagSet("rlservd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs)
		err := fs.Parse(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("rlservd %s: parse error %v, want \"flag provided but not defined\"", strings.Join(args, " "), err)
		}
	}
}

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
