#!/usr/bin/env python
"""Quickstart: the paper's Section 2 "smugglers" query, end to end.

Walks through the whole pipeline on a synthetic map:

1. state the Boolean constraint system (Figure 1);
2. compile it to the triangular solved form (Algorithm 1 / Figure 2);
3. look at the bounding-box plan (Algorithm 2, one range query per step);
4. execute, and compare the optimized plan against the naive join.

Run:  python examples/quickstart.py
"""

from repro import ReproError, parse_system
from repro.datagen import make_map
from repro.engine import (
    SpatialQuery,
    answers_as_oid_tuples,
    compile_query,
    execute,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The query, in the paper's Figure 1 notation.
    #    C (country) and A (destination area) are given; find a border
    #    town T, a road R from T into A crossing no state boundary, and
    #    the state B the road runs through.
    # ------------------------------------------------------------------
    system = parse_system(
        """
        A <= C                 # the destination area is inside the country
        B <= C                 # the state is inside the country
        R <= A | B | T         # the road stays within area/state/town
        R & A != 0             # the road reaches the destination area
        R & T != 0             # the road starts at the town
        T !<= C                # the town straddles the border
        """
    )
    print("== constraint system (Figure 1) ==")
    print(system)

    # ------------------------------------------------------------------
    # 2. A synthetic world: country, 3x3 states, towns (some on the
    #    border), roads (some valid), destination area.
    # ------------------------------------------------------------------
    world = make_map(seed=11, n_towns=25, n_roads=25, states_grid=(3, 3))
    query = SpatialQuery(
        system=system,
        tables=world.tables(index="rtree"),
        bindings={"C": world.country, "A": world.area},
        order=["T", "R", "B"],  # the paper's "arbitrarily picked" order
    )

    # ------------------------------------------------------------------
    # 3. Compile: triangular form + bounding-box templates.
    # ------------------------------------------------------------------
    plan = compile_query(query)
    print("\n== triangular solved form (Algorithm 1) ==")
    print(plan.triangular.render())
    print("\n== bounding-box plan (Algorithm 2; one range query/step) ==")
    for step in plan.steps:
        print(f"-- step {step.variable} --")
        print(step.template.render())

    # ------------------------------------------------------------------
    # 4. Execute in three modes and compare work done.
    # ------------------------------------------------------------------
    print("\n== execution ==")
    reference = None
    for mode in ("naive", "exact", "boxplan"):
        answers, stats = execute(plan, mode)
        tuples = answers_as_oid_tuples(answers, ["T", "R", "B"])
        if reference is None:
            reference = tuples
        assert tuples == reference, "modes must agree!"
        print(stats.summary())

    print(f"\n{len(reference)} smuggling plan(s) found; first few:")
    for t, r, b in reference[:5]:
        print(f"  town #{t}, road #{r}, state #{b}")
    print(
        "\nground truth: border towns =",
        world.border_town_ids,
        "| engineered roads =",
        world.good_road_ids,
    )

    # ------------------------------------------------------------------
    # 5. Malformed input ends in a typed error, not a bare traceback.
    # ------------------------------------------------------------------
    try:
        parse_system("R <= (A | B")
    except ReproError as err:
        print(f"\nrejected: {type(err).__name__}: {err}")


if __name__ == "__main__":
    main()
