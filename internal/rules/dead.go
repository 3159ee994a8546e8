package rules

import "chameleon/internal/spec"

// DeadForDeclared reports the rules in rs that can never fire given the
// declared kinds allocated by a program: a rule is live when some
// declared kind can produce a collection matching its srcType, dead
// otherwise. An abstract declared kind (a NewListFrom site inherits its
// backing from its source at run time) keeps every rule of its family
// live, since any implementation of the family may flow through it.
//
// This is vet's dual, computed against a program instead of the rule set
// alone: vet proves a rule unsatisfiable from its guard, DeadForDeclared
// proves it unreachable from the program's allocation sites. The static
// analyzer (internal/analysis, S009) is the consumer.
func DeadForDeclared(rs *RuleSet, declared []spec.Kind) []*Rule {
	if rs == nil {
		return nil
	}
	var dead []*Rule
	for _, r := range rs.Rules {
		if !ruleLive(r.Src, declared) {
			dead = append(dead, r)
		}
	}
	return dead
}

// ruleLive reports whether any declared kind can match src. The check
// runs both directions of Matches: a concrete declared kind matches an
// abstract src the usual way, while an abstract declared kind (unknown
// concrete backing) is matched by any src within its family.
func ruleLive(src spec.Kind, declared []spec.Kind) bool {
	for _, k := range declared {
		if k == spec.KindNone {
			continue
		}
		if k.Matches(src) || src.Matches(k) {
			return true
		}
	}
	return false
}
