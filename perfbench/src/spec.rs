//! The benchmark specification, `spec.json`: each workload's parameters
//! and why it was chosen, and every metric with its unit, direction and
//! (for per-layer metrics) the end-to-end metrics it is predicted to
//! move. The binary embeds the file, so the parameters it runs with are
//! exactly the ones recorded there.

use jsonlite::Value;

/// One metric declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
}

/// The parsed specification.
pub struct Spec {
    root: Value,
}

/// One workload's `params` object.
pub struct Params<'a> {
    workload: &'a str,
    v: &'a Value,
}

impl Params<'_> {
    fn get(&self, key: &str) -> &Value {
        self.v
            .get(key)
            .unwrap_or_else(|| panic!("spec.json: {}.params.{key} missing", self.workload))
    }

    /// A numeric parameter.
    pub fn f64(&self, key: &str) -> f64 {
        self.get(key)
            .as_f64()
            .unwrap_or_else(|| panic!("spec.json: {}.params.{key} is not a number", self.workload))
    }

    /// A non-negative integer parameter.
    pub fn usize(&self, key: &str) -> usize {
        let v = self.get(key).as_i64().filter(|n| *n >= 0);
        v.unwrap_or_else(|| panic!("spec.json: {}.params.{key} is not a count", self.workload))
            as usize
    }

    /// A list of numbers.
    pub fn list(&self, key: &str) -> Vec<f64> {
        let items = self
            .get(key)
            .as_array()
            .unwrap_or_else(|| panic!("spec.json: {}.params.{key} is not a list", self.workload));
        items
            .iter()
            .map(|v| v.as_f64().expect("numeric list item"))
            .collect()
    }
}

impl Spec {
    /// The embedded `spec.json`.
    pub fn load() -> Self {
        Self {
            root: jsonlite::parse(include_str!("../spec.json")).expect("spec.json is valid JSON"),
        }
    }

    /// Workload names in declaration order.
    #[cfg(test)]
    pub fn workloads(&self) -> Vec<String> {
        let w = self
            .root
            .get("workloads")
            .and_then(Value::as_object)
            .expect("workloads object");
        w.iter().map(|(k, _)| k.clone()).collect()
    }

    /// Why a workload was chosen.
    #[cfg(test)]
    pub fn why(&self, workload: &str) -> String {
        self.root
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("why"))
            .and_then(Value::as_str)
            .expect("every workload has a why")
            .to_owned()
    }

    /// A workload's parameters; `None` for an unknown workload.
    pub fn params<'a>(&'a self, workload: &'a str) -> Option<Params<'a>> {
        let v = self.root.get("workloads")?.get(workload)?.get("params")?;
        Some(Params { workload, v })
    }

    /// The machine's processor count the parameters were sized for.
    #[cfg(test)]
    pub fn nproc(&self) -> usize {
        self.root
            .get("nproc")
            .and_then(Value::as_i64)
            .expect("nproc") as usize
    }

    fn metrics(&self, key: &str) -> Vec<Metric> {
        let list = self
            .root
            .get(key)
            .and_then(Value::as_array)
            .expect("metric list");
        list.iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .expect("metric field")
                        .to_owned()
                };
                Metric {
                    name: field("name"),
                    unit: field("unit"),
                    better: field("better"),
                }
            })
            .collect()
    }

    /// End-to-end metrics, printed by untraced runs.
    pub fn end_to_end(&self) -> Vec<Metric> {
        self.metrics("end_to_end")
    }

    /// Per-layer metrics, printed by traced runs.
    pub fn per_layer(&self) -> Vec<Metric> {
        self.metrics("per_layer")
    }

    /// Replace one workload parameter (tests shrink workloads with it).
    #[cfg(test)]
    pub fn set_param(&mut self, workload: &str, key: &str, value: Value) {
        let Value::Object(top) = &mut self.root else {
            panic!("spec root is an object")
        };
        let (_, workloads) = top
            .iter_mut()
            .find(|(k, _)| k == "workloads")
            .expect("workloads");
        let Value::Object(ws) = workloads else {
            panic!("workloads is an object")
        };
        let (_, w) = ws
            .iter_mut()
            .find(|(k, _)| k == workload)
            .expect("workload");
        let Value::Object(fields) = w else {
            panic!("workload is an object")
        };
        let (_, params) = fields
            .iter_mut()
            .find(|(k, _)| k == "params")
            .expect("params");
        let Value::Object(params) = params else {
            panic!("params is an object")
        };
        match params.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => panic!("{workload}.params.{key} does not exist"),
        }
    }

    /// The `metric@workload` pairs a per-layer metric is predicted to move.
    #[cfg(test)]
    pub fn moves(&self, name: &str) -> Vec<String> {
        let list = self
            .root
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer");
        list.iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|m| m.get("moves"))
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(str::to_owned)
                    .collect()
            })
            .unwrap_or_default()
    }
}
