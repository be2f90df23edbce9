"""The tests whose outcome depends on the kernels, run once more in process
on the compiled twin.

Each test named here runs in its own module, under its own id, on the
session's kernels (the pure twin unless a compiled extension is built into
``src``).  This module collects it a second time with the ``backend``
fixture fixed to the compiled twin: its id here is ``<name>[compiled]``, or
``<name>[<params>-compiled]`` when it is parametrized.  The fixture is
taken as a mark, not an argument, so it installs the kernels once for every
example of a Hypothesis test.

A test named here must not carry a kernel's result from one backend to the
other: a module-level value it evaluates (such as a ``WrightSpec``, whose
term table fills on first use) is rebuilt inside the test.
"""

import pytest

from test_acceptance import *  # noqa: F401,F403  (every criterion)
from test_cli import (  # noqa: F401
    test_bad_config_is_usage_error,
    test_bad_config_tolerance_is_usage_error,
    test_bad_seed_grid_config_is_usage_error,
    test_config_term_cap_limits,
    test_eval_bessel_overflow_is_numerical_error,
    test_eval_kernel_overflow_is_numerical_error,
    test_eval_overflow_is_numerical_error,
    test_eval_unconverged_value_is_numerical_error,
    test_sweep_builds_once,
    test_sweep_error_paths,
    test_sweep_rows_match_eval,
    test_sweeps_cover_every_function,
    test_table_unconverged_value_is_numerical_error,
    test_usage_errors,
    test_wright_pair_limit_is_a_usage_error,
)
from test_gammacore import test_non_finite_argument_is_domain_error  # noqa: F401
from test_msm import test_image_evaluator_matches_value_at  # noqa: F401
from test_pathway import (  # noqa: F401
    test_density_bounds_are_pinned,
    test_density_error_bound_holds,
    test_density_value_is_the_same_with_its_bound,
    test_density_values_are_pinned,
)
from test_series import test_modified_error_bound_holds  # noqa: F401
from test_tracer import *  # noqa: F401,F403  (the whole bench-tracer contract)
from test_wright import (  # noqa: F401
    test_evaluator_matches_wright_eval,
    test_evaluator_shared_by_threads,
    test_evaluator_stops_at_the_first_overflowing_term,
    test_evaluator_tabulates_each_term_once,
)

pytestmark = [pytest.mark.usefixtures("backend"),
              pytest.mark.parametrize("backend", ["compiled"], indirect=True)]
