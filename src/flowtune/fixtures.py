"""Bundled example economies."""

from importlib import resources

from .model import EconomyGraph, load_economy

FIXTURE_NAMES = ("minecraft_torch", "mage", "archer")


def fixture_text(name: str) -> str:
    """Raw document of a bundled economy (without the .json suffix)."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return (resources.files(__package__) / "data" / f"{name}.json").read_text("utf-8")


def load_fixture(name: str) -> EconomyGraph:
    return load_economy(fixture_text(name))
