"""Thread-safety smoke tests: values are immutable and caches deterministic."""

import threading
from fractions import Fraction

import twistsum.bernoulli_euler as be
import twistsum.twisted_c as tc
from twistsum.oracles import _star_table
from twistsum.bernoulli_euler import TwistSpec, bernoulli_numbers
from twistsum.powersum import SumSpec, brute_sum, closed_sum


def run_threads(worker, count=8):
    results = [None] * count
    errors = []

    def wrap(i):
        try:
            results[i] = worker(i)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


def test_bernoulli_cache_is_deterministic_under_contention():
    be._bernoulli_table.cache_clear()
    values = run_threads(lambda i: bernoulli_numbers(40)[40])
    assert all(v == Fraction(-261082718496449122051, 13530) for v in values)


def test_concurrent_sums_agree():
    spec = SumSpec.of((3, 1), (20, 30), 0, 3, 2, 1)
    expected = brute_sum(spec)
    values = run_threads(lambda i: (brute_sum if i % 2 else closed_sum)(spec))
    assert all(v == expected for v in values)


def test_concurrent_generalized_euler_values():
    twist = TwistSpec(3, 1)
    expected = be.gen_euler_numbers(8, twist, (1, 2))
    values = run_threads(lambda i: be.gen_euler_numbers(8, twist, (1, 2)))
    assert all(v == expected for v in values)


def test_bernoulli_rows_of_mixed_orders_agree():
    orders = (3, 17, 40, 64)
    expected = {n: be._bernoulli_value(n, Fraction(-7, 12)) for n in orders}
    be._bernoulli_row.cache_clear()
    # each thread asks for the orders starting from a different one
    values = run_threads(lambda i: {n: be._bernoulli_value(n, Fraction(-7, 12)) for n in orders[i % 4:] + orders[: i % 4]})
    assert all(v == expected for v in values)


def test_star_tables_of_mixed_keys_and_orders_agree():
    keys = [(3, 2, (1,), 1), (12, 5, (1, 3), 2), (7, 4, (3, 1, 1), 3), (10, 12, (5, 7), 1)]
    expected = [_star_table(tc.c_star, *key) for key in keys]
    tc._euler_memo.cache_clear()
    # each thread asks for the keys starting from a different one
    values = run_threads(lambda i: [tc._periodic_stars(*keys[(i + j) % 4]) for j in range(4)])
    for i, got in enumerate(values):
        assert [list(table) for table in got] == [expected[(i + j) % 4] for j in range(4)]
