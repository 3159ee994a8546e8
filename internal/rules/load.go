package rules

import (
	"errors"
	"os"
	"strings"
)

// CheckError reports a rule set that parses but fails Check: one entry
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

// LoadFile is the rule-file policy every command shares: read the file,
// parse it and Check it against params. Its error tells the three
// failures apart: a file that does not read returns the os error, one
// that does not parse a *Error, and one that fails Check a *CheckError.
func LoadFile(path string, params Params) (*RuleSet, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rs, err := Parse(string(src))
	if err != nil {
		return nil, err
	}
	if errs := Check(rs, params); len(errs) > 0 {
		return nil, &CheckError{Errs: errs}
	}
	return rs, nil
}

// ErrRuleSources is Choose's error for a command line that names more
// than one rule set.
var ErrRuleSources = errors.New("choose one of a rules file, -builtin or -extended")

// Choose resolves a command line's rule-set choice: a rules file (loaded
// with LoadFile), the builtin set or the extended set. name is the file's
// path, "<builtin>" or "<extended>". It returns a nil set when nothing
// was chosen and ErrRuleSources when more than one was.
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
	case builtin:
		return Builtin(), "<builtin>", nil
	case extended:
		return Extended(), "<extended>", nil
	case path != "":
		rs, err := LoadFile(path, params)
		return rs, path, err
	}
	return nil, "", nil
}
