package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRejectsAdmitBytesOff builds the controller and starts it with
// -admit-bytes 0: suppliers without flow control never shed, so a fleet
// sized on the shed rate could never grow. The controller must refuse by
// name with the usage exit status before it launches anything.
func TestRejectsAdmitBytesOff(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "jbsautoscalerd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, admit := range []string{"0", "-1"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-registry", "127.0.0.1:1", "-supplier-bin", bin,
			"-mof-dir", t.TempDir(), "-admit-bytes", admit, "-quiet").CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-admit-bytes") {
			t.Fatalf("-admit-bytes %s: want exit status 2 naming -admit-bytes, got %v:\n%s", admit, err, out)
		}
	}
}
