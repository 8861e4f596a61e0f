"""Hand-made mutants of src/ and the tests that must fail on each.

Each entry is (file, old text, new text, test node ids): the mutant
replaces the old text, which occurs exactly once under src/, by the new
text in that file, and every listed test must then fail.
tests/test_mutants.py checks, in tier-1, that each old text still occurs
exactly once and that each listed test exists, so a refactor that moves
the code fails there and updates its entry in the open.  Applying the
mutants and running their tests is a separate, slower step.
"""

from __future__ import annotations

ENGINE = "tests/test_engine.py"

MUTANTS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    # A layer slice one node too long: a uniform subtree reads as not
    # uniform and is cut instead of counted (same answers, lost count).
    (
        "src/learndim/dimensions.py",
        "layer = self.nodes[(v << j) - 1 : ((v + 1) << j) - 1]",
        "layer = self.nodes[(v << j) - 1 : ((v + 1) << j)]",
        (
            f"{ENGINE}::test_verify_against_counts_a_uniform_subtree_once",
            f"{ENGINE}::test_verify_against_counts_an_optimal_cube_tree_at_its_root",
        ),
    ),
    # The repeated-point case skipped: a column listed twice counts once.
    (
        "src/learndim/dimensions.py",
        "return len({code & selector for code in codes}) == 1 << len(columns)",
        "return len({code & selector for code in codes}) == 1 << len(set(columns))",
        (
            f"{ENGINE}::test_verify_against_counts_match_the_path_by_path_reference",
            f"{ENGINE}::test_verify_against_counts_a_uniform_subtree_once",
        ),
    ),
    # A uniform subtree counted on every code, not on the ids reaching it:
    # a point already fixed above the subtree passes.
    (
        "src/learndim/dimensions.py",
        "return _shatters(_codes_of(fc, ids), [fc.column(x) for x in layers])",
        "return _shatters(fc.codes, [fc.column(x) for x in layers])",
        (
            f"{ENGINE}::test_verify_against_counts_match_the_path_by_path_reference",
            f"{ENGINE}::test_verify_against_counts_a_uniform_subtree_once",
        ),
    ),
    # The flip adversary's question takes the last most contested point,
    # as `<=` for `<` would in a scan for the first.
    (
        "src/learndim/games.py",
        "return self.fc.domain[gaps.index(min(gaps))]",
        "return self.fc.domain[len(gaps) - 1 - gaps[::-1].index(min(gaps))]",
        (
            f"{ENGINE}::test_flip_transcripts_match_the_max_of_min_reference",
            f"{ENGINE}::test_adversaries_follow_their_rules_on_rows",
        ),
    ),
    # The flip adversary's reveal breaks a tie towards 1: `<` for `<=`.
    (
        "src/learndim/games.py",
        "truth = 1 if ones and not 0 < zeros <= ones else 0",
        "truth = 1 if ones and not 0 < zeros < ones else 0",
        (
            f"{ENGINE}::test_flip_transcripts_match_the_max_of_min_reference",
            f"{ENGINE}::test_adversaries_follow_their_rules_on_rows",
        ),
    ),
    # The label map keyed by the points in sorted order, not column order.
    (
        "src/learndim/classes.py",
        "return {x: (ones ^ full, ones) for x, ones in zip(self.domain, self.masks)}",
        "return {x: (ones ^ full, ones) for x, ones in zip(sorted(self.domain), self.masks)}",
        (f"{ENGINE}::test_label_lookups_match_the_rows_and_domain_order",),
    ),
    # tree_witness without its depth refusal: 2**63 overflows len().
    (
        "src/learndim/dimensions.py",
        "    _refuse_tree_depth(depth)\n",
        "",
        ("tests/test_exit_codes.py::test_budget_and_usage_messages",),
    ),
    # dim --measure littlestone printing its tree unchecked.
    (
        "src/learndim/cli.py",
        'if args.measure == "littlestone" and not report.certificate.verify_against(fc):',
        'if args.measure == "littlestone" and False:',
        ("tests/test_cli.py::test_dim_littlestone_certificate_checked_before_output",),
    ),
)
