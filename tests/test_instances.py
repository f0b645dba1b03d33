import json

import pytest

from bnbapprox.instances import (
    IDENTICAL,
    KNAPSACK,
    UNIFORM,
    UNRELATED,
    InstanceError,
    KnapsackInstance,
    SchedulingInstance,
    capacity_range,
    from_json_dict,
    generate,
    load_instance,
    save_instance,
    to_json_dict,
)
from bnbapprox.rational import rat
from bnbapprox.rng import SplitMix64


def test_capacity_range_worked_example():
    # w=(2,3,4,5,6): c_min=2, c_max=ceil(20/5)-2=2
    assert capacity_range([2, 3, 4, 5, 6]) == (2, 2)
    # degenerate range clamps up: single item
    assert capacity_range([7]) == (7, 7)


def test_generate_knapsack_follows_capacity_formula():
    for seed in range(50):
        inst = generate(KNAPSACK, 8, 3, seed)
        weights = [int(w) for w in inst.weights]
        c_min, c_max = capacity_range(weights)
        for c in inst.capacities:
            assert c_min <= int(c) <= c_max
        assert all(1 <= int(w) <= 100 for w in inst.weights)
        assert all(1 <= int(p) <= 100 for p in inst.profits)
        max_cap = max(int(c) for c in inst.capacities)
        expected_unusable = [j for j, w in enumerate(weights) if w > max_cap]
        assert inst.meta["unusable_items"] == expected_unusable


def test_generate_scheduling_kinds():
    inst = generate(UNRELATED, 1, 1, 3)
    assert 1 <= int(inst.processing[0][0]) <= 100
    uni = generate(UNIFORM, 6, 3, 4)
    assert uni.speeds is not None and all(1 <= int(s) <= 5 for s in uni.speeds)
    for j in range(uni.n):
        for i in range(uni.m):
            assert uni.processing[j][i] == uni.base_times[j] / uni.speeds[i]
    ident = generate(IDENTICAL, 4, 2, 5)
    assert all(s == 1 for s in ident.speeds)
    assert all(inst == 0 for inst in ident.overheads)


def test_generate_determinism_byte_identical():
    a = json.dumps(to_json_dict(generate(KNAPSACK, 7, 2, 99)), sort_keys=True)
    b = json.dumps(to_json_dict(generate(KNAPSACK, 7, 2, 99)), sort_keys=True)
    assert a == b
    c = json.dumps(to_json_dict(generate(KNAPSACK, 7, 2, 100)), sort_keys=True)
    assert a != c


def test_generate_invariants_many_seeds():
    # generator output satisfies the type invariants (validated on build);
    # items that fit nowhere are flagged
    for seed in range(0, 1000, 7):
        inst = generate(KNAPSACK, 5, 2, seed)
        max_cap = max(inst.capacities)
        for j, w in enumerate(inst.weights):
            assert w <= max_cap or j in inst.meta["unusable_items"]
    for seed in range(0, 1000, 97):
        generate(UNIFORM, 4, 3, seed)  # __post_init__ checks P == p/s
        generate(IDENTICAL, 4, 3, seed)
        generate(UNRELATED, 4, 3, seed)


def test_generate_validation():
    with pytest.raises(InstanceError):
        generate(KNAPSACK, 0, 2, 1)
    with pytest.raises(InstanceError):
        generate("nope", 3, 2, 1)


def test_io_roundtrip(tmp_path):
    for kind in (KNAPSACK, UNRELATED, UNIFORM, IDENTICAL):
        inst = generate(kind, 5, 2, 11)
        path = tmp_path / f"{kind}.json"
        save_instance(inst, str(path))
        again = load_instance(str(path))
        assert again == inst
        assert dict(again.meta) == dict(inst.meta)
        # a second write is byte-identical
        path2 = tmp_path / f"{kind}-2.json"
        save_instance(again, str(path2))
        assert path.read_text() == path2.read_text()


def test_load_rejects_length_mismatch(tmp_path):
    inst = generate(KNAPSACK, 4, 2, 0)
    data = to_json_dict(inst)
    data["n"] = 7  # |w| != n
    with pytest.raises(InstanceError):
        from_json_dict(data)
    data = to_json_dict(inst)
    data["weights"] = data["weights"][:-1]
    with pytest.raises(InstanceError):
        from_json_dict(data)


def test_load_rejects_inconsistent_uniform():
    inst = generate(UNIFORM, 3, 2, 0)
    data = to_json_dict(inst)
    data["processing"][0][0] = "12345"
    with pytest.raises(InstanceError):
        from_json_dict(data)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InstanceError):
        load_instance(str(path))
    path.write_text('{"kind": "mystery"}')
    with pytest.raises(InstanceError):
        load_instance(str(path))
    # a number where a "num/den" string belongs
    path.write_text('{"kind": "knapsack", "weights": [1], "profits": ["1"], "capacities": ["2"]}')
    with pytest.raises(InstanceError, match="not a \"num/den\" string"):
        load_instance(str(path))
    # a string where an array belongs, which would read as its characters
    path.write_text(
        '{"kind": "scheduling-unrelated", "processing": [["1", "2"]], "overheads": "00"}'
    )
    with pytest.raises(InstanceError, match="overheads must be an array"):
        load_instance(str(path))


def test_type_invariants():
    with pytest.raises(InstanceError):
        KnapsackInstance((rat(-1),), (rat(1),), (rat(2),))
    with pytest.raises(InstanceError):
        KnapsackInstance((rat(1),), (rat(0),), (rat(2),))
    with pytest.raises(InstanceError):
        SchedulingInstance(IDENTICAL, ((rat(2), rat(2)),), (rat(0), rat(0)),
                           (rat(2),), (rat(1), rat(2)))  # identical needs unit speeds
    with pytest.raises(InstanceError):
        SchedulingInstance(UNRELATED, ((rat(2), rat(2)),), (rat(0), rat(0)),
                           base_times=(rat(2),), speeds=(rat(1), rat(1)))


def test_splitmix_rejection_bounds():
    rng = SplitMix64(5)
    draws = [rng.randint(3, 9) for _ in range(2000)]
    assert min(draws) == 3 and max(draws) == 9
