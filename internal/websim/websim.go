// Package websim is the virtual-time model of the §5.4 web experiment:
// an NGINX-like server inside the protected VM, driven by closed-loop
// clients. Under Synchronous Safety every response is held in the output
// buffer until the epoch's audit commits; under Best Effort responses
// leave immediately. The VM serves no requests while paused for
// checkpoints.
//
// One client model serves every reported number. Gen (loadgen.go)
// collapses closed-loop users into per-class cohorts — WrkClient is the
// paper's wrk run behind Figure 7, DefaultClasses the million-user mix
// behind BENCH_web.json — and DriveGen (schedule.go) is the one function
// that replays a protection timeline, fixed or captured from a real
// controller run, into a generator.
package websim

import (
	"errors"
	"time"
)

// ErrBadParams reports an invalid generator configuration.
var ErrBadParams = errors.New("websim: invalid parameters")

// WrkClient is the paper's §5.4 client as one cohort: wrk's 48
// connections x 16 pipelined requests are 768 closed-loop users that
// resend one tick after each response, against a 58.5 µs request. Ten
// unprotected seconds complete 170,940 requests — the paper's 17,094
// req/s baseline exactly.
var WrkClient = Class{
	Name:    "wrk",
	Users:   48 * 16,
	Think:   100 * time.Microsecond,
	Service: 58500 * time.Nanosecond,
}
