"""Learn the safe-path set of a black box by sampling and generalizing.

The learner never looks at states. It draws random input sequences,
keeps the safe ones, and asks a membership oracle whether each bound
step can be freed without covering an unsafe sequence. What comes back
is a set of monomials: partial input assignments whose expansions are
all safe.
"""

from pacreach import (LearnerConfig, MachineSafetyQuery, build_alks,
                      exact_count_dp, learn_safe_set)


def main():
    machine = build_alks(with_assist=False)
    sul = MachineSafetyQuery(machine)

    cfg = LearnerConfig(horizon=3, sample_budget=50, rng_seed=11)
    learned, stats = learn_safe_set(sul, cfg)

    print(f"learned {len(learned)} monomials from {cfg.sample_budget} "
          f"draws ({stats.examples_skipped_implied} were already implied):")
    for mono in learned:
        print(f"  {mono}")

    covered = learned.count_exact(sul.input_alphabet)
    truth = exact_count_dp(machine, cfg.horizon).safe_paths
    print(f"\ncovered sequences: {covered}")
    print(f"exact safe count:  {truth}")
    # A machine's oracle queries are counted, not run: one sweep per
    # example, a backward pass and a forward pass over its states,
    # answers all of that example's candidates.
    print(f"adapter answered {sul.query_count} queries "
          f"({stats.sample_attempts} sampling, run; "
          f"{stats.oracle_sequence_queries} oracle, counted)")

    # The formula count sums the monomial sizes and can over-count
    # overlapping expansions; count_exact deduplicates.
    formula = learned.count_formula(len(sul.input_alphabet))
    if formula != covered:
        print(f"(the naive sum would have said {formula})")

    # The default oracle only generalizes when EVERY covered sequence is
    # safe. The any-safe variant generalizes as soon as ONE is, and it
    # shows: it claims unsafe sequences as safe.
    loose, _ = learn_safe_set(
        MachineSafetyQuery(machine),
        LearnerConfig(horizon=3, sample_budget=50, rng_seed=11,
                      oracle_semantics="paper-literal"))
    loose_covered = loose.count_exact(sul.input_alphabet)
    print(f"\nany-safe oracle for comparison: covers {loose_covered} "
          f"of 27 sequences, but only {truth} are actually safe")


if __name__ == "__main__":
    main()
