package registrycheck_test

import (
	"testing"

	"namecoherence/internal/analysis/analysistest"
	"namecoherence/internal/analysis/registrycheck"
)

func TestRegistrycheck(t *testing.T) {
	analysistest.Run(t, registrycheck.Analyzer, "nameserver")
}

// TestRegistrycheckBinaryCodec isolates the codec-completeness rule: the
// fixture's registry and request handling are clean, so the only reports
// are a type with an encoder but no decoder and a decoder that skips a
// field.
func TestRegistrycheckBinaryCodec(t *testing.T) {
	analysistest.Run(t, registrycheck.Analyzer, "nameserver_binary")
}
