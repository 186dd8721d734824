package apps

import "fmt"

// BuiltinSource returns the assembly source of a bundled case-study
// program, for inspection with `sentomist asm`. Buggy variants are returned;
// append "-fixed" for the repaired ones.
func BuiltinSource(name string) (string, error) {
	switch name {
	case "caseI":
		return oscSensorSource(20_000, true), nil
	case "caseI-fixed":
		return oscSensorSource(20_000, false), nil
	case "caseI-sink":
		return oscSinkSource, nil
	case "caseII":
		return fwdRelaySource(true), nil
	case "caseII-fixed":
		return fwdRelaySource(false), nil
	case "caseII-source":
		return fwdSourceSource(0xA7, 0x1f), nil
	case "caseIII":
		return ctpNodeSource(true), nil
	case "caseIII-fixed":
		return ctpNodeSource(false), nil
	}
	return "", fmt.Errorf("apps: unknown builtin %q (want caseI[-fixed|-sink], caseII[-fixed|-source], caseIII[-fixed])", name)
}
