package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateCacheFlags pins every up-front rejection of a nonsensical
// persistent-cache flag combination (each must fail with a one-line error
// before any sweep work starts) and the mode each valid combination
// resolves to.
func TestValidateCacheFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tt := range []struct {
		name        string
		s           cacheFlagState
		mode        string
		wantChaos   bool
		wantShard   string // Shard.String() of the parsed shard ("" = full grid, "auto" = elastic pool)
		wantElastic bool   // -shard auto resolved to the work-stealing pool
		wantErr     string
	}{
		{name: "no cache flags", s: cacheFlagState{TraceCache: true}, mode: "rw"},
		{name: "dir alone defaults to rw", s: cacheFlagState{Dir: dir, TraceCache: true}, mode: "rw"},
		{name: "explicit rw", s: cacheFlagState{Dir: dir, RW: true, TraceCache: true}, mode: "rw"},
		{name: "explicit ro", s: cacheFlagState{Dir: dir, RO: true, TraceCache: true}, mode: "ro"},
		{name: "explicit off", s: cacheFlagState{Dir: dir, Off: true, TraceCache: true}, mode: "off"},
		{name: "off without trace cache is fine", s: cacheFlagState{Dir: dir, Off: true}, mode: "off"},
		{
			name:    "rw and ro together",
			s:       cacheFlagState{Dir: dir, RW: true, RO: true, TraceCache: true},
			wantErr: "mutually exclusive",
		},
		{
			name:    "ro and off together",
			s:       cacheFlagState{Dir: dir, RO: true, Off: true, TraceCache: true},
			wantErr: "mutually exclusive",
		},
		{
			name:    "mode flag without a dir",
			s:       cacheFlagState{RW: true, TraceCache: true},
			wantErr: "pass -cache-dir DIR",
		},
		{
			name:    "max-bytes without a dir",
			s:       cacheFlagState{MaxBytes: 1 << 20, MaxBytesSet: true, TraceCache: true},
			wantErr: "pass -cache-dir DIR",
		},
		{
			name:    "non-positive max-bytes",
			s:       cacheFlagState{Dir: dir, MaxBytes: -5, MaxBytesSet: true, TraceCache: true},
			wantErr: "must be positive",
		},
		{
			name:    "cache without the trace cache",
			s:       cacheFlagState{Dir: dir, TraceCache: false},
			wantErr: "rides on the trace cache",
		},
		{
			name:    "read-only over a missing dir",
			s:       cacheFlagState{Dir: dir + "/missing", RO: true, TraceCache: true},
			wantErr: "does not exist",
		},
		{
			name:      "chaos spec parses",
			s:         cacheFlagState{Dir: dir, Chaos: "seed=7,rate=0.5", TraceCache: true},
			mode:      "rw",
			wantChaos: true,
		},
		{
			name:      "chaos with read-only mode",
			s:         cacheFlagState{Dir: dir, RO: true, Chaos: "err=0.1", TraceCache: true},
			mode:      "ro",
			wantChaos: true,
		},
		{
			name:    "chaos without a dir",
			s:       cacheFlagState{Chaos: "rate=1", TraceCache: true},
			wantErr: "pass -cache-dir DIR",
		},
		{
			name:    "chaos with cache off",
			s:       cacheFlagState{Dir: dir, Off: true, Chaos: "rate=1", TraceCache: true},
			wantErr: "no effect with -cache-off",
		},
		{
			name:    "malformed chaos spec",
			s:       cacheFlagState{Dir: dir, Chaos: "rate=2.0", TraceCache: true},
			wantErr: "probability in [0,1]",
		},
		{
			name:    "unknown chaos key",
			s:       cacheFlagState{Dir: dir, Chaos: "bogus=1", TraceCache: true},
			wantErr: "unknown",
		},
		{
			name:    "retries without a dir",
			s:       cacheFlagState{Retries: 5, RetriesSet: true, TraceCache: true},
			wantErr: "pass -cache-dir DIR",
		},
		{
			name:    "negative retries",
			s:       cacheFlagState{Dir: dir, Retries: -1, RetriesSet: true, TraceCache: true},
			wantErr: "must be >= 0",
		},
		{
			name:    "retries with cache off",
			s:       cacheFlagState{Dir: dir, Off: true, Retries: 3, RetriesSet: true, TraceCache: true},
			wantErr: "no effect with -cache-off",
		},
		{
			name:    "timeout without a dir",
			s:       cacheFlagState{Timeout: time.Second, TimeoutSet: true, TraceCache: true},
			wantErr: "pass -cache-dir DIR",
		},
		{
			name:    "non-positive timeout",
			s:       cacheFlagState{Dir: dir, Timeout: -time.Second, TimeoutSet: true, TraceCache: true},
			wantErr: "must be positive",
		},
		{
			name: "retries and timeout with a dir",
			s: cacheFlagState{
				Dir: dir, Retries: 3, RetriesSet: true,
				Timeout: time.Second, TimeoutSet: true, TraceCache: true,
			},
			mode: "rw",
		},
		{name: "url alone defaults to rw", s: cacheFlagState{URL: "http://localhost:9", TraceCache: true}, mode: "rw"},
		{
			name: "url carries the hardening stack",
			s: cacheFlagState{
				URL: "http://localhost:9", Chaos: "seed=3,rate=0.2",
				Retries: 4, RetriesSet: true, TraceCache: true,
			},
			mode:      "rw",
			wantChaos: true,
		},
		{
			name: "url in read-only mode skips the dir check",
			s:    cacheFlagState{URL: "http://localhost:9", RO: true, TraceCache: true},
			mode: "ro",
		},
		{
			name:    "dir and url together",
			s:       cacheFlagState{Dir: dir, URL: "http://localhost:9", TraceCache: true},
			wantErr: "not both",
		},
		{
			name:    "url without the trace cache",
			s:       cacheFlagState{URL: "http://localhost:9", TraceCache: false},
			wantErr: "rides on the trace cache",
		},
		{
			name:      "shard over a dir store",
			s:         cacheFlagState{Dir: dir, Shard: "2/4", TraceCache: true},
			mode:      "rw",
			wantShard: "2/4",
		},
		{
			name:      "shard over a url store",
			s:         cacheFlagState{URL: "http://localhost:9", Shard: "1/2", TraceCache: true},
			mode:      "rw",
			wantShard: "1/2",
		},
		{
			name:    "shard without a store",
			s:       cacheFlagState{Shard: "1/2", TraceCache: true},
			wantErr: "read-write mode",
		},
		{
			name:    "shard over a read-only store",
			s:       cacheFlagState{Dir: dir, RO: true, Shard: "1/2", TraceCache: true},
			wantErr: "read-write mode",
		},
		{
			name:    "shard with merge",
			s:       cacheFlagState{Dir: dir, Shard: "1/2", Merge: true, TraceCache: true},
			wantErr: "pass one, not both",
		},
		{
			name:    "malformed shard spec",
			s:       cacheFlagState{Dir: dir, Shard: "0/2", TraceCache: true},
			wantErr: "-shard",
		},
		{
			name:        "shard auto over a url store",
			s:           cacheFlagState{URL: "http://localhost:9", Shard: "auto", TraceCache: true},
			mode:        "rw",
			wantShard:   "auto",
			wantElastic: true,
		},
		{
			name:        "shard auto over a dir store",
			s:           cacheFlagState{Dir: dir, Shard: "auto", TraceCache: true},
			mode:        "rw",
			wantShard:   "auto",
			wantElastic: true,
		},
		{
			name:    "shard auto without a store",
			s:       cacheFlagState{Shard: "auto", TraceCache: true},
			wantErr: "read-write mode",
		},
		{
			name:    "shard auto over a read-only store",
			s:       cacheFlagState{Dir: dir, RO: true, Shard: "auto", TraceCache: true},
			wantErr: "read-write mode",
		},
		{
			name:    "shard auto with merge",
			s:       cacheFlagState{Dir: dir, Shard: "auto", Merge: true, TraceCache: true},
			wantErr: "pass one, not both",
		},
		{
			name:    "stale age without a store",
			s:       cacheFlagState{StaleAge: time.Second, StaleAgeSet: true, TraceCache: true},
			wantErr: "pass -cache-dir DIR",
		},
		{
			name:    "non-positive stale age",
			s:       cacheFlagState{Dir: dir, StaleAge: -time.Second, StaleAgeSet: true, TraceCache: true},
			wantErr: "must be positive",
		},
		{
			name:    "stale age with cache off",
			s:       cacheFlagState{Dir: dir, Off: true, StaleAge: time.Second, StaleAgeSet: true, TraceCache: true},
			wantErr: "no effect with -cache-off",
		},
		{
			name: "stale age with an elastic worker",
			s: cacheFlagState{
				URL: "http://localhost:9", Shard: "auto",
				StaleAge: 5 * time.Second, StaleAgeSet: true, TraceCache: true,
			},
			mode:        "rw",
			wantShard:   "auto",
			wantElastic: true,
		},
		{name: "merge over a dir store", s: cacheFlagState{Dir: dir, Merge: true, TraceCache: true}, mode: "rw"},
		{
			name: "merge over a read-only url store",
			s:    cacheFlagState{URL: "http://localhost:9", RO: true, Merge: true, TraceCache: true},
			mode: "ro",
		},
		{
			name:    "merge without a store",
			s:       cacheFlagState{Merge: true, TraceCache: true},
			wantErr: "-merge assembles",
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			setup, err := validateCacheFlags(tt.s)
			if tt.wantErr != "" {
				if err == nil {
					t.Fatalf("want error containing %q, got %+v", tt.wantErr, setup)
				}
				if !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("error %q does not contain %q", err, tt.wantErr)
				}
				if strings.ContainsRune(err.Error(), '\n') {
					t.Fatalf("error is not one line: %q", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if setup.Mode != tt.mode {
				t.Fatalf("mode: want %q got %q", tt.mode, setup.Mode)
			}
			if (setup.Chaos != nil) != tt.wantChaos {
				t.Fatalf("chaos spec: want present=%t got %v", tt.wantChaos, setup.Chaos)
			}
			if setup.Shard.String() != tt.wantShard {
				t.Fatalf("shard: want %q got %q", tt.wantShard, setup.Shard)
			}
			if setup.Shard.Elastic() != tt.wantElastic {
				t.Fatalf("elastic: want %t got %t", tt.wantElastic, setup.Shard.Elastic())
			}
		})
	}
}

// TestValidateCacheServeFlags pins -cache-serve's contract: it turns the
// process into a cache server, needs the directory to serve, and takes no
// flag that would configure a local run.
func TestValidateCacheServeFlags(t *testing.T) {
	cases := []struct {
		name     string
		explicit map[string]bool
		wantErr  string
	}{
		{name: "no cache-serve", explicit: map[string]bool{"fig3": true, "cache-dir": true}},
		{name: "serve with its dir", explicit: map[string]bool{"cache-serve": true, "cache-dir": true}},
		{
			name:     "serve without a dir",
			explicit: map[string]bool{"cache-serve": true},
			wantErr:  "needs -cache-dir",
		},
		{
			name:     "serve with an experiment",
			explicit: map[string]bool{"cache-serve": true, "cache-dir": true, "fig8": true},
			wantErr:  "-fig8",
		},
		{
			name:     "serve with shard and jobs",
			explicit: map[string]bool{"cache-serve": true, "cache-dir": true, "shard": true, "j": true},
			wantErr:  "-j, -shard",
		},
	}
	for _, tt := range cases {
		err := validateCacheServeFlags(tt.explicit)
		if tt.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tt.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tt.name, err, tt.wantErr)
		}
	}
}

// TestValidateWatchFlags pins -watch's exclusivity: it attaches to another
// process, so any local-run flag alongside it is rejected up front.
func TestValidateWatchFlags(t *testing.T) {
	cases := []struct {
		name     string
		explicit map[string]bool
		wantErr  string
	}{
		{name: "no watch", explicit: map[string]bool{"fig7": true, "j": true}},
		{name: "watch alone", explicit: map[string]bool{"watch": true}},
		{
			name:     "watch with experiment",
			explicit: map[string]bool{"watch": true, "fig8": true},
			wantErr:  "-fig8",
		},
		{
			name:     "watch with serve and jobs",
			explicit: map[string]bool{"watch": true, "serve": true, "j": true},
			wantErr:  "-j, -serve",
		},
	}
	for _, tt := range cases {
		err := validateWatchFlags(tt.explicit)
		if tt.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tt.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tt.name, err, tt.wantErr)
		}
	}
}
