"""An :class:`AllOf`'s value holds the children the loop has delivered,
never one that is only triggered: a Timeout carries its value from
creation, but it has not happened until it is delivered."""

from repro.sim import AllOf, Environment


def test_all_of_value_holds_delivered_children_only():
    env = Environment()
    early = env.timeout(1, value="early")
    late = env.timeout(2, value="late")
    cond = AllOf(env, [early, late])
    env.run(until=1.5)
    assert late.triggered and not cond.triggered
    assert cond._collect() == {early: "early"}
    env.run()
    assert cond.value == {early: "early", late: "late"}


def test_all_of_over_delivered_children_fires_with_their_values():
    env = Environment()
    done = env.timeout(1, value="done")
    env.run()

    def proc():
        value = yield AllOf(env, [done, env.timeout(1, value="next")])
        return sorted(value.values())

    p = env.process(proc())
    env.run()
    assert p.value == ["done", "next"]
