"""A weather-like dataset standing in for the paper's real dataset.

The paper evaluates on the September 1985 land-station weather relation:
1,015,367 tuples over nine dimensions with cardinalities

    station-id 7037, longitude 352, solar-altitude 179, latitude 152,
    present-weather 101, day 30, weather-change-code 10, hour 8,
    brightness 2.

That file is not redistributable here, so this generator synthesizes a
*structurally equivalent* dataset (the substitution is recorded in
DESIGN.md §5).  What makes the real data compress so well under quotient
cubes is its correlation structure — many cells share cover sets because
dimensions co-vary — which the generator reproduces explicitly:

* each station has a fixed longitude and latitude (functional
  dependencies station → longitude, station → latitude);
* solar altitude is a deterministic band of the hour plus small jitter;
* brightness follows the hour (day/night);
* station activity and present-weather are Zipf-skewed;
* weather-change-code is "no change" most of the time.

``scale`` shrinks every cardinality (and the station pool) uniformly so
laptop-sized runs keep the same shape.
"""

from __future__ import annotations

import numpy as np

from repro.cube.schema import Schema
from repro.cube.table import BaseTable
from repro.data.synthetic import zipf_probabilities
from repro.errors import SchemaError

#: The real dataset's dimensions, in the paper's cardinality-descending order.
PAPER_CARDINALITIES = {
    "station_id": 7037,
    "longitude": 352,
    "solar_altitude": 179,
    "latitude": 152,
    "present_weather": 101,
    "day": 30,
    "weather_change_code": 10,
    "hour": 8,
    "brightness": 2,
}

DIMENSIONS = tuple(PAPER_CARDINALITIES)


def scaled_cardinalities(scale: float) -> dict:
    """The paper's cardinalities scaled down (each at least 2)."""
    if not 0 < scale <= 1:
        raise SchemaError(f"scale must be in (0, 1], got {scale}")
    return {
        name: max(2, int(round(card * scale)))
        for name, card in PAPER_CARDINALITIES.items()
    }


def weather_table(
    n_rows: int,
    scale: float = 0.01,
    seed: int = 0,
    n_dims: int = 9,
) -> BaseTable:
    """Generate a weather-like table with the dataset's correlations.

    ``n_dims`` keeps the first ``n_dims`` dimensions (in the order of
    :data:`DIMENSIONS`), matching the paper's Figure 15 sweep over
    dimensionality.  The measure is a synthetic temperature reading.
    """
    if not 1 <= n_dims <= 9:
        raise SchemaError(f"n_dims must be in 1..9, got {n_dims}")
    cards = scaled_cardinalities(scale)
    rng = np.random.default_rng(seed)
    n_station = cards["station_id"]

    # Functional dependencies: one (longitude, latitude) per station.
    station_longitude = rng.integers(0, cards["longitude"], size=n_station)
    station_latitude = rng.integers(0, cards["latitude"], size=n_station)

    station = rng.choice(
        n_station, size=n_rows, p=zipf_probabilities(n_station, 1.2)
    )
    day = rng.integers(0, cards["day"], size=n_rows)
    hour = rng.integers(0, cards["hour"], size=n_rows)
    # Solar altitude: a band per hour with a little jitter.
    band = cards["solar_altitude"] / cards["hour"]
    solar = np.clip(
        (hour * band + rng.normal(0, band / 4, size=n_rows)).astype(int),
        0,
        cards["solar_altitude"] - 1,
    )
    weather = rng.choice(
        cards["present_weather"],
        size=n_rows,
        p=zipf_probabilities(cards["present_weather"], 1.5),
    )
    change = rng.choice(
        cards["weather_change_code"],
        size=n_rows,
        p=zipf_probabilities(cards["weather_change_code"], 2.5),
    )
    # Brightness: day vs night from the hour, rare exceptions.
    brightness = ((hour >= cards["hour"] // 2).astype(int))
    flip = rng.random(n_rows) < 0.02
    brightness = np.where(flip, 1 - brightness, brightness)

    columns = {
        "station_id": station,
        "longitude": station_longitude[station],
        "solar_altitude": solar,
        "latitude": station_latitude[station],
        "present_weather": weather,
        "day": day,
        "weather_change_code": change,
        "hour": hour,
        "brightness": brightness,
    }
    keep = DIMENSIONS[:n_dims]
    codes = np.column_stack([columns[name] for name in keep])
    temperature = rng.uniform(-30.0, 45.0, size=(n_rows, 1))
    schema = Schema(dimensions=keep, measures=("temperature",))
    return BaseTable.from_encoded(
        codes, temperature, schema, cardinalities=[cards[name] for name in keep]
    )
