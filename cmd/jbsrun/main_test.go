package main

import (
	"strings"
	"testing"
)

func TestNewProvider(t *testing.T) {
	for _, name := range []string{"hadoop-http", "jbs-tcp"} {
		p, err := newProvider(name, 0)
		if err != nil {
			t.Fatalf("-shuffle %s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("-shuffle %s built provider %q", name, p.Name())
		}
	}
	// TCP is the one JBS transport: asking for the emulated RDMA (or RoCE)
	// provider is refused with an error naming the value.
	for _, backend := range []string{"rdma", "roce"} {
		name := "jbs-" + backend
		if _, err := newProvider(name, 0); err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("-shuffle %s: err = %v, want an error naming the value", name, err)
		}
	}
}
