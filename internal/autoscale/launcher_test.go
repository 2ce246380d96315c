package autoscale

import (
	"os"
	"strings"
	"testing"
)

// TestExecLauncherRefusesFlowOff: a supplier launched without flow
// control never sheds, and the shed rate is the only signal the policy
// scales on, so Launch refuses a budget that is not positive before it
// starts a process.
func TestExecLauncherRefusesFlowOff(t *testing.T) {
	for _, admit := range []int64{0, -1} {
		// Any executable would start; the test binary is one that exists.
		l := &ExecLauncher{Binary: os.Args[0], RegistryAddr: "127.0.0.1:1", MOFDir: t.TempDir(), AdmitBytes: admit}
		inst, err := l.Launch("auto-1")
		if err == nil {
			_ = inst.Kill()
			t.Fatalf("AdmitBytes %d: launched a supplier with flow control off", admit)
		}
		if !strings.Contains(err.Error(), "AdmitBytes") {
			t.Fatalf("AdmitBytes %d: error %q does not name AdmitBytes", admit, err)
		}
	}
}
