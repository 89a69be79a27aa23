//go:build !amd64

package tensor

import "testing"

// forEachKernelPath runs f once: without the assembly kernels every
// product takes the pure-Go path.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) { t.Run("pure Go", f) }
