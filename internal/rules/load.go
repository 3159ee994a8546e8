package rules

import (
	"errors"
	"maps"
	"os"
	"slices"
	"strings"
)

// CheckError reports a rule set that parses but fails check: one entry
// per vocabulary problem.
type CheckError struct {
	Errs []error
}

// Error implements error, one problem per line.
func (e *CheckError) Error() string {
	msgs := make([]string, len(e.Errs))
	for i, err := range e.Errs {
		msgs[i] = err.Error()
	}
	return strings.Join(msgs, "\n")
}

// Bind checks rs against params and returns a set bound to them over the
// same rules: it carries params and vet's findings under them, computed
// here once, so evaluation and reports read them from the set. A set that
// fails check returns a *CheckError. rs itself is left as it was.
func Bind(rs *RuleSet, params Params) (*RuleSet, error) {
	if errs := check(rs, params); len(errs) > 0 {
		return nil, &CheckError{Errs: errs}
	}
	return &RuleSet{Rules: slices.Clip(rs.Rules), params: maps.Clone(params), diags: vet(rs, params)}, nil
}

// LoadFile is the rule-file policy every command shares: read the file,
// parse it and Bind it to params. Its error tells the three failures
// apart: a file that does not read returns the os error, one that does
// not parse a *Error, and one that fails check a *CheckError.
func LoadFile(path string, params Params) (*RuleSet, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rs, err := Parse(string(src))
	if err != nil {
		return nil, err
	}
	return Bind(rs, params)
}

// ErrRuleSources is Choose's error for a command line that names more
// than one rule set.
var ErrRuleSources = errors.New("choose one of a rules file, -builtin or -extended")

// Choose resolves a command line's rule-set choice: a rules file (loaded
// with LoadFile), the builtin set or the extended set, each bound to
// params. name is the file's path, "<builtin>" or "<extended>". It
// returns a nil set when nothing was chosen and ErrRuleSources when more
// than one was.
func Choose(path string, builtin, extended bool, params Params) (rs *RuleSet, name string, err error) {
	chosen := 0
	for _, set := range []bool{path != "", builtin, extended} {
		if set {
			chosen++
		}
	}
	switch {
	case chosen > 1:
		return nil, "", ErrRuleSources
	case builtin, extended:
		rs, name = Builtin(), "<builtin>"
		if extended {
			rs, name = Extended(), "<extended>"
		}
		if !maps.Equal(params, rs.params) { // the shipped sets are bound to DefaultParams
			rs, err = Bind(rs, params)
		}
		return rs, name, err
	case path != "":
		rs, err := LoadFile(path, params)
		return rs, path, err
	}
	return nil, "", nil
}
