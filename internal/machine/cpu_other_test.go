//go:build !unix

package machine

import "time"

var epoch = time.Now()

// processCPU falls back to wall time where getrusage does not exist.
func processCPU() time.Duration { return time.Since(epoch) }
