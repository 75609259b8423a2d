"""Run-level configuration: the registration settings plus the run fields.

A RunConfig is a RegistrationConfig with the settings of the second
level and of the command-line run added, so one field list names every
tunable and one codec (``RegistrationConfig.to_dict``/``from_dict``)
reads and writes it.  A fit's ``fit.config`` is itself a valid config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .classify import DEFAULT_CV_FOLDS, DEFAULT_CV_GRID, DEFAULT_SMOOTHING_WINDOW
from .codec import read_json
from .errors import DataError, check_int
from .registration import RegistrationConfig


@dataclass(frozen=True)
class RunConfig(RegistrationConfig):
    """Registration settings plus the classifier and cross-validation fields.

    ``k_x``/``k_e`` fix the truncation pair; when both are None it is
    chosen by ``cv_folds``-fold cross-validation over ``cv_grid``.
    """

    k_x: int | None = None
    k_e: int | None = None
    cv_grid: tuple = DEFAULT_CV_GRID
    cv_folds: int = DEFAULT_CV_FOLDS
    smoothing_window: int = DEFAULT_SMOOTHING_WINDOW
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if (self.k_x is None) != (self.k_e is None):
            raise DataError("k_x and k_e must be given together or both omitted")
        if self.k_x is not None:
            check_int("k_x", self.k_x, 1)
            check_int("k_e", self.k_e, 1)
            if self.k_x < self.k_e:
                raise DataError(
                    f"identifiability requires k_x >= k_e, got ({self.k_x}, {self.k_e})"
                )
        if not isinstance(self.cv_grid, (tuple, list)) or not self.cv_grid:
            raise DataError(f"cv_grid must be a non-empty list of pairs, got {self.cv_grid!r}")
        for pair in self.cv_grid:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise DataError(f"cv_grid entries must be [k_x, k_e] pairs, got {pair!r}")
            kx, ke = pair
            check_int("cv_grid k_x", kx, 1)
            check_int("cv_grid k_e", ke, 1)
            if kx < ke:
                raise DataError(f"cv_grid pair ({kx}, {ke}) violates k_x >= k_e")
        check_int("cv_folds", self.cv_folds, 2)
        check_int("smoothing_window", self.smoothing_window, 1)
        if self.smoothing_window % 2 == 0:
            raise DataError(f"smoothing_window must be odd, got {self.smoothing_window}")
        check_int("seed", self.seed)

    def registration(self) -> RegistrationConfig:
        """The level-one settings alone."""
        return RegistrationConfig(
            **{f.name: getattr(self, f.name) for f in fields(RegistrationConfig)}
        )


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(read_json(path))
